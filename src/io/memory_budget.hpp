#pragma once

// Memory budget for the out-of-core regime.
//
// The paper runs pCLOUDS with a hard per-processor memory limit (1 MB per
// 6M tuples, scaled linearly with data size); nodes whose data exceeds the
// limit are processed out-of-core.  MemoryBudget makes that limit explicit:
// algorithms ask whether a working set fits and size their streaming blocks
// from it.

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace pdc::io {

class MemoryBudget {
 public:
  explicit MemoryBudget(std::size_t bytes) : bytes_(bytes) {
    if (bytes == 0) throw std::invalid_argument("MemoryBudget: zero budget");
  }

  std::size_t bytes() const { return bytes_; }

  /// True if a working set of `n` objects of size `object_bytes` fits.
  bool fits(std::size_t n, std::size_t object_bytes) const {
    return n <= bytes_ / object_bytes;
  }

  /// Number of records of `record_bytes` each that a streaming block may
  /// hold when the budget is split across `streams` concurrent streams.
  /// Always at least 1 so progress is possible.
  std::size_t block_records(std::size_t record_bytes,
                            std::size_t streams = 1) const {
    const std::size_t per_stream = bytes_ / std::max<std::size_t>(1, streams);
    return std::max<std::size_t>(1, per_stream / record_bytes);
  }

  /// The paper's scaling rule: 1 MB of memory per 6.0M training tuples,
  /// scaled linearly with the data size.
  static MemoryBudget paper_scaled(std::size_t total_records,
                                   std::size_t reference_records = 6'000'000,
                                   std::size_t reference_bytes = 1 << 20) {
    const double scale = static_cast<double>(total_records) /
                         static_cast<double>(reference_records);
    const auto b = static_cast<std::size_t>(
        static_cast<double>(reference_bytes) * scale);
    return MemoryBudget(std::max<std::size_t>(b, 4096));
  }

 private:
  std::size_t bytes_;
};

}  // namespace pdc::io
