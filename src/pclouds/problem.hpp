#pragma once

// CloudsProblem: pCLOUDS expressed as a DcProblem over the generic parallel
// out-of-core divide-and-conquer framework.
//
// Large nodes (driven by the framework's data parallelism):
//   local_stats    one streaming pass filling the node's interval
//                  histograms and count matrices — skipped entirely when
//                  the parent's partitioning pass already prefilled them
//                  (the paper's "avoids a separate additional pass").
//   decide         derives the splitting point: boundary evaluation via the
//                  configured combiner (replication/distributed), then, for
//                  SSE, alive-interval determination and the single-
//                  assignment exact evaluation; finally prepares the
//                  children's sample partitions, interval boundaries and
//                  empty statistics, and returns a router that updates the
//                  children's statistics while the framework partitions.
//   on_split       global-combines the children's class counts and grows
//                  the replicated decision tree.
//
// Small nodes (driven by the framework's delayed task parallelism):
//   solve_sequential  builds the whole subtree in memory with the direct
//                     method (sort every numeric attribute, evaluate every
//                     point), exactly as the paper prescribes for small
//                     nodes; the subtree is kept for final grafting.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clouds/builder.hpp"
#include "clouds/cost_hooks.hpp"
#include "clouds/splitters.hpp"
#include "clouds/quantile_sketch.hpp"
#include "clouds/tree.hpp"
#include "dc/problem.hpp"
#include "io/local_disk.hpp"
#include "pclouds/config.hpp"

namespace pdc::pclouds {

class CloudsProblem final : public dc::DcProblem<data::Record> {
 public:
  struct Diag {
    std::size_t sse_nodes = 0;
    double survival_sum = 0.0;
    std::uint64_t alive_points_shipped = 0;
    std::size_t alive_intervals = 0;
    std::size_t prefilled_nodes = 0;  ///< stats passes saved by partitioning
  };

  /// `disk` is the rank's local disk, used to spill small-node data that
  /// exceeds the memory budget (may be null in unit tests: then every small
  /// node is solved in memory regardless of size).
  CloudsProblem(const PcloudsConfig& cfg, std::uint64_t root_records,
                std::vector<data::Record> replicated_sample,
                clouds::CostHooks hooks, io::LocalDisk* disk = nullptr);

  // --- DcProblem interface ---
  std::vector<std::byte> local_stats(const Scan& scan,
                                     const dc::Task& task) override;
  std::vector<std::byte> combine(std::vector<std::byte> a,
                                 const std::vector<std::byte>& b) override;
  std::optional<Router> decide(mp::Comm& comm,
                               const std::vector<std::byte>& stats,
                               const Scan& scan,
                               const dc::Task& task) override;
  void on_split(mp::Comm& comm, const dc::Task& parent, const dc::Task& left,
                const dc::Task& right) override;
  void on_leaf(mp::Comm& comm, const dc::Task& task) override;
  void solve_sequential(const dc::Task& task,
                        std::vector<data::Record> data) override;
  double sequential_cost(std::uint64_t n) const override;
  std::vector<std::byte> export_subtree(const dc::Task& task) override;
  void absorb_subtree(const dc::Task& task,
                      std::span<const std::byte> blob) override;
  /// Checkpoint codec: the partial tree, task→node map, every live task
  /// context (sample, histograms, sketches) and the diagnostics — enough to
  /// make a resumed run replay the remaining splits bit-identically.  Maps
  /// are serialized in task-id order so the blob is deterministic.
  std::vector<std::byte> export_state() const override;
  void restore_state(std::span<const std::byte> blob) override;

  // --- results (read after the driver finishes) ---
  clouds::DecisionTree& tree() { return tree_; }
  std::int32_t tree_node_of(std::int64_t task_id) const;
  /// Subtrees built by this rank during the small-node phase.
  const std::vector<std::pair<std::int64_t, std::vector<clouds::TreeNode>>>&
  small_subtrees() const {
    return small_subtrees_;
  }
  const Diag& diag() const { return diag_; }

 private:
  struct TaskCtx {
    std::vector<data::Record> sample;  ///< replicated node sample (kSample)
    clouds::NodeStats local;           ///< boundaries + local frequencies
    bool filled = false;               ///< frequencies/sketches complete
    bool prefilled = false;            ///< filled by parent's partitioning
    /// kSketch mode: per-numeric-attribute quantile sketches of this
    /// rank's slice, plus its local class counts (kept in local.counts).
    std::vector<clouds::QuantileSketch> sketches;
  };

  TaskCtx& ctx_of(const dc::Task& task);
  void drop_ctx(std::int64_t task_id);
  bool sketch_mode() const {
    return cfg_.boundaries == BoundarySource::kSketch;
  }
  /// Per-level compactor capacity of the kSketch boundary sketches.
  static constexpr std::size_t kSketchK = 256;
  std::vector<std::byte> encode_sketch_blob(const TaskCtx& ctx) const;

  PcloudsConfig cfg_;
  // Constructor-provided environment, re-supplied on resume rather than
  // checkpointed: the run harness rebuilds the problem with the same data
  // set and hooks, so export_state()/restore_state() never touch these.
  std::uint64_t root_records_;   // pdc: nonwire(constructor argument, identical across resumes)
  std::vector<data::Record> root_sample_;  // pdc: nonwire(re-replicated from the data set on resume)
  clouds::CostHooks hooks_;      // pdc: nonwire(instrumentation, not model state)
  io::LocalDisk* disk_;          // pdc: nonwire(process-local handle, meaningless on the wire)

  clouds::DecisionTree tree_;
  std::unordered_map<std::int64_t, TaskCtx> ctxs_;
  std::unordered_map<std::int64_t, clouds::Split> splits_;
  std::unordered_map<std::int64_t, std::pair<TaskCtx, TaskCtx>> pending_;
  std::unordered_map<std::int64_t, std::int32_t> node_of_;
  std::vector<std::pair<std::int64_t, std::vector<clouds::TreeNode>>>
      small_subtrees_;
  Diag diag_;
};

}  // namespace pdc::pclouds
