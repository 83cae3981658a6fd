#pragma once

// pSPRINT: a parallel, out-of-core SPRINT classifier used as the baseline
// pCLOUDS is evaluated against (CLOUDS' claim: same accuracy and
// compactness at substantially lower I/O and computation).
//
// Faithful core of the algorithm:
//   * one-time parallel sample sort of every numeric attribute list; the
//     sort order survives partitioning, so nodes never re-sort,
//   * split evaluation by a single sweep over each rank's portion of each
//     sorted list (class counts "below" the portion come from one prefix
//     sum across ranks), gini at every distinct value — exact splits,
//   * categorical attributes from count matrices, as everywhere else,
//   * partitioning: the winning attribute's scan produces the set of
//     record ids that go left; the set is ALL-GATHERED so every rank can
//     probe it while splitting its portions of the other lists — SPRINT's
//     notorious rid exchange and memory-resident structure, reported in
//     SprintDiag so the cost is visible in the comparison benches.
//
// The tree is replicated: every decision derives from global reductions
// with deterministic tie-breaking.

#include <cstdint>
#include <string>

#include "clouds/builder.hpp"  // CloudsConfig reused for the stopping rule
#include "clouds/cost_hooks.hpp"
#include "clouds/tree.hpp"
#include "io/local_disk.hpp"
#include "io/pipeline.hpp"
#include "mp/comm.hpp"

namespace pdc::sprint {

/// How the left-record-id set reaches the ranks that must probe it while
/// splitting the non-winning lists.
enum class RidExchange : int {
  /// SPRINT [14]: the whole left set is all-gathered and held in memory on
  /// every rank.  Simple; memory and traffic grow with the node size.
  kReplicated = 0,
  /// ScalParC [8]: the set is hash-partitioned across ranks (rid % p);
  /// membership is resolved by batched query/response exchanges.  Per-rank
  /// memory shrinks by p at the price of more message startups.
  kDistributedHash = 1,
};

struct SprintConfig {
  std::int64_t min_records = 2;
  std::int32_t max_depth = 24;
  double purity_stop = 1.0;
  std::size_t memory_bytes = 1 << 20;  ///< per-rank streaming budget
  RidExchange rid_exchange = RidExchange::kReplicated;
  /// Async double-buffered streaming for attribute-list I/O (presort
  /// write-behind, sweep/partition read-ahead); depth 0 = synchronous.
  io::PipelineConfig pipeline;
};

struct SprintDiag {
  std::size_t nodes = 0;
  std::size_t leaves = 0;
  std::uint64_t rids_exchanged = 0;     ///< total rid traffic (entries)
  std::uint64_t max_rid_set = 0;        ///< peak in-memory rid set size
  std::uint64_t entries_streamed = 0;   ///< list entries read over the build
};

class SprintBuilder {
 public:
  explicit SprintBuilder(SprintConfig cfg, clouds::CostHooks hooks = {})
      : cfg_(cfg), hooks_(hooks) {}

  /// Collective.  `records_file` holds this rank's slice of the training
  /// set (data::Record).  Builds the attribute lists (parallel pre-sort),
  /// then the tree.  All scratch list files live on `disk` and are removed
  /// before returning.
  clouds::DecisionTree train(mp::Comm& comm, io::LocalDisk& disk,
                             const std::string& records_file,
                             SprintDiag* diag = nullptr);

 private:
  SprintConfig cfg_;
  clouds::CostHooks hooks_;
};

}  // namespace pdc::sprint
