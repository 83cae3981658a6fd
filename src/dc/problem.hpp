#pragma once

// The generic parallel out-of-core divide-and-conquer problem interface
// (paper, Section 3).
//
// A problem instance is a divide-and-conquer tree.  The root task holds the
// entire data set, distributed at random across the ranks' local disks;
// each internal task is split into two subtasks (binary trees, as in the
// paper).  The framework (DcDriver) owns data placement, streaming,
// partitioning and the parallelization strategy; the problem supplies the
// domain logic through this interface:
//
//   local_stats  one streaming pass over the rank's slice of a task,
//                producing a statistics blob,
//   combine      associative merge of two blobs (folded in rank order),
//   decide       given the globally combined blob, either produce a Router
//                (record -> child 0/1) or declare the task a leaf.  decide
//                is collective: it may run further collectives and further
//                local passes (e.g. CLOUDS' alive-interval pass), and must
//                reach the same conclusion on every rank,
//   on_split / on_leaf
//                bookkeeping hooks, called identically on every rank,
//   solve_sequential
//                solve a whole subtask locally on its assigned owner rank
//                (the endpoint of task parallelism / small nodes).

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "io/pipeline.hpp"
#include "mp/comm.hpp"
#include "mp/serialize.hpp"

namespace pdc::dc {

struct Task {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  int child_index = 0;  ///< 0 = left child of parent, 1 = right
  int depth = 0;
  std::uint64_t global_n = 0;  ///< records across all ranks
};

template <mp::Wireable T>
class DcProblem {
 public:
  /// Invokes the callback once per record of the local slice (one pass).
  using Scan = io::Scan<T>;
  /// Maps a record to child 0 (left) or 1 (right); must be a pure function
  /// of the record and identical across ranks.
  using Router = std::function<int(const T&)>;

  virtual ~DcProblem() = default;

  virtual std::vector<std::byte> local_stats(const Scan& scan,
                                             const Task& task) = 0;

  virtual std::vector<std::byte> combine(std::vector<std::byte> a,
                                         const std::vector<std::byte>& b) = 0;

  virtual std::optional<Router> decide(mp::Comm& comm,
                                       const std::vector<std::byte>& stats,
                                       const Scan& scan, const Task& task) = 0;

  virtual void on_split(mp::Comm& comm, const Task& parent, const Task& left,
                        const Task& right) {
    (void)comm;
    (void)parent;
    (void)left;
    (void)right;
  }

  virtual void on_leaf(mp::Comm& comm, const Task& task) {
    (void)comm;
    (void)task;
  }

  /// Solve the whole subtree of `task` on this rank alone.  Called only on
  /// the task's owner, with the task's full (redistributed) data.
  virtual void solve_sequential(const Task& task, std::vector<T> data) = 0;

  /// Group task parallelism only: serialize this rank's result for the
  /// finished subtree of `task` so the driver can hand it to the sibling
  /// processor group.  Called on every member of the group that solved the
  /// task; the driver broadcasts only the group leader's blob.
  virtual std::vector<std::byte> export_subtree(const Task& task) {
    (void)task;
    return {};
  }

  /// Group task parallelism only: merge a sibling group's finished subtree
  /// (as produced by its leader's export_subtree).
  virtual void absorb_subtree(const Task& task,
                              std::span<const std::byte> blob) {
    (void)task;
    (void)blob;
  }

  /// Estimated cost of solving a task of n records sequentially; drives the
  /// LPT owner assignment for small tasks.  Default: n log n (sort-bound).
  virtual double sequential_cost(std::uint64_t n) const {
    const double dn = static_cast<double>(n);
    return n <= 1 ? 1.0 : dn * std::log2(dn);
  }

  /// Checkpointing: serialize this rank's complete problem state (partial
  /// result plus whatever per-task context outlives one driver iteration).
  /// Called by the driver at a loop boundary on every rank; restore_state
  /// must rebuild an equivalent object so that a resumed run makes the
  /// exact same decisions as an uninterrupted one.  The default (empty
  /// blob, no-op restore) is correct only for stateless problems.
  virtual std::vector<std::byte> export_state() const { return {}; }
  virtual void restore_state(std::span<const std::byte> blob) { (void)blob; }
};

}  // namespace pdc::dc
