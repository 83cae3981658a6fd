#pragma once

// pCLOUDS configuration (paper, Section 5).
//
// Large nodes are built with data parallelism; split derivation combines
// interval-boundary statistics with the *replication method* by default
// (the paper's implementation choice), evaluated with the attribute-based
// approach.  The interval-based and hybrid approaches and the *distributed
// method* are provided for the combiner ablation.  Small nodes — those
// whose interval budget has shrunk to `interval_threshold` (the paper uses
// ten) — are deferred and solved with delayed task parallelism.

#include <cstddef>
#include <cstdint>

#include "clouds/builder.hpp"
#include "dc/driver.hpp"

namespace pdc::pclouds {

enum class CombineMethod : int {
  kReplicationAttribute = 0,  ///< paper's choice: one rank per attribute
  kReplicationInterval = 1,   ///< boundaries round-robined across ranks
  kReplicationHybrid = 2,     ///< contiguous balanced (attr, boundary) chunks
  kDistributed = 3,           ///< stats gathered only to per-attribute owners
  kVoting = 4,                ///< top-k vote; only 2k attributes' stats travel
};

/// Where the interval boundaries of each node come from.
enum class BoundarySource : int {
  /// The paper/CLOUDS: equi-depth quantiles of the pre-drawn sample set S,
  /// replicated across ranks and partitioned alongside the data.
  kSample = 0,
  /// Extension: mergeable quantile sketches built during the data passes —
  /// no sample to draw, store or partition, and boundaries adapt to the
  /// node's actual data.  Costs one extra streaming pass per node.
  kSketch = 1,
};

struct PcloudsConfig {
  clouds::CloudsConfig clouds{};  ///< method (SS/SSE), q schedule, stopping
  dc::Strategy strategy = dc::Strategy::kMixed;
  CombineMethod combiner = CombineMethod::kReplicationAttribute;

  /// CombineMethod::kVoting: how many locally-best attributes each rank
  /// nominates; the vote keeps min(2k, m) global candidates and only their
  /// interval histograms travel.  2k >= m (m = data::kNumAttributes)
  /// degenerates to the exact attribute-based evaluation.
  int vote_k = 2;

  /// CombineMethod::kVoting second communication lever: quantize the
  /// exchanged histogram counts to this many significant bits before the
  /// delta/varint wire encoding (0 = exact counts).  Quantization biases
  /// the merged counts, so it trades further split-quality drift for
  /// smaller vote-exchange payloads.
  int hist_bits = 0;

  /// Switch to task parallelism when a node's interval budget would drop to
  /// this many intervals (paper: 10).
  int interval_threshold = 10;

  /// Explicit small-node threshold in records; 0 derives it from
  /// `interval_threshold` and the q schedule.
  std::uint64_t small_threshold_records = 0;

  /// Per-rank memory for streaming buffers (the paper's "memory limit").
  std::size_t memory_bytes = 1 << 20;

  BoundarySource boundaries = BoundarySource::kSample;

  /// Snapshot the driver's state every N dequeued tasks (0 = off); see
  /// dc::DcConfig::checkpoint_every.
  std::uint64_t checkpoint_every = 0;
  /// Resume from the newest snapshot valid on every rank's disk.
  bool resume = false;

  std::uint64_t derived_small_threshold(std::uint64_t root_records) const {
    if (small_threshold_records != 0) return small_threshold_records;
    if (clouds.q_root <= 0) return 0;
    // q_for(n) <= interval_threshold  <=>  n <= root * threshold / q_root.
    return root_records *
           static_cast<std::uint64_t>(interval_threshold) /
           static_cast<std::uint64_t>(clouds.q_root);
  }
};

}  // namespace pdc::pclouds
