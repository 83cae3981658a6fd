#pragma once

// The hypercube dimension the cost model charges collectives over.  The
// paper's complexity analysis (Table 1) is for a p-processor hypercube with
// cut-through routing; the same bounds hold for permutation networks such
// as the IBM SP series.

#include <bit>
#include <cstdint>

namespace pdc::mp {

/// ceil(log2(p)) for p >= 1; log2 of the hypercube dimension.  The paper's
/// formulas use log p; for non-powers-of-two we round the dimension up, which
/// matches embedding p processors in the next larger hypercube.
inline int ceil_log2(int p) {
  if (p <= 1) return 0;
  return std::bit_width(static_cast<std::uint32_t>(p - 1));
}

}  // namespace pdc::mp
