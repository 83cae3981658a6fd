#pragma once

// Communication cost model: the exact formulas of Table 1 of the paper
// (collective primitives on a cut-through routed hypercube).
//
//   All-to-all broadcast : tau*log p + mu*m*(p-1)
//   Gather               : tau*log p + mu*m*p
//   Global combine       : tau*log p + mu*m
//   Prefix sum           : tau*log p + mu*m
//
// m is the per-processor message size in bytes.  One-to-all broadcast and
// all-to-all personalized exchange are not in Table 1; we use the standard
// cut-through hypercube results from Kumar et al. (the paper's reference
// [10]): (tau + mu*m)*log p and (tau + mu*m*p/2)*log p respectively.

#include <cstddef>

#include "mp/machine.hpp"
#include "mp/topology.hpp"

namespace pdc::mp {

class CostModel {
 public:
  explicit CostModel(const Machine& machine) : m_(machine) {}

  // With a single processor no communication happens, so every collective
  // is free (the formulas below would otherwise keep their mu*m term).

  double all_to_all_broadcast(int p, std::size_t bytes_per_rank) const {
    if (p <= 1) return 0.0;
    return m_.tau * ceil_log2(p) +
           m_.mu * static_cast<double>(bytes_per_rank) * (p - 1);
  }

  double gather(int p, std::size_t bytes_per_rank) const {
    if (p <= 1) return 0.0;
    return m_.tau * ceil_log2(p) +
           m_.mu * static_cast<double>(bytes_per_rank) * p;
  }

  double global_combine(int p, std::size_t bytes) const {
    if (p <= 1) return 0.0;
    return m_.tau * ceil_log2(p) + m_.mu * static_cast<double>(bytes);
  }

  double prefix_sum(int p, std::size_t bytes) const {
    if (p <= 1) return 0.0;
    return m_.tau * ceil_log2(p) + m_.mu * static_cast<double>(bytes);
  }

  double one_to_all_broadcast(int p, std::size_t bytes) const {
    return (m_.tau + m_.mu * static_cast<double>(bytes)) * ceil_log2(p);
  }

  /// All-to-all personalized exchange; `bytes_per_pair` is the (maximum)
  /// message size between any source/destination pair.
  double all_to_all_personalized(int p, std::size_t bytes_per_pair) const {
    if (p <= 1) return 0.0;
    return (m_.tau + m_.mu * static_cast<double>(bytes_per_pair) * p / 2.0) *
           ceil_log2(p);
  }

  double barrier(int p) const { return m_.tau * ceil_log2(p); }

  /// Disk costs charge the rank's clock directly on the synchronous path;
  /// under the async pipeline (io::PipelineConfig) the same values feed the
  /// per-disk device timeline, and only the unhidden stall reaches the rank
  /// (mp::Clock::charge_io_overlapped).
  double disk_read(std::size_t bytes) const {
    return m_.disk_access + m_.disk_mu * static_cast<double>(bytes);
  }
  double disk_write(std::size_t bytes) const {
    return m_.disk_access + m_.disk_mu * static_cast<double>(bytes);
  }

  const Machine& machine() const { return m_; }

 private:
  Machine m_;
};

}  // namespace pdc::mp
