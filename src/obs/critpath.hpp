#pragma once

// Cross-rank dependency DAG and critical-path machinery.
//
// The modeled run already records everything needed to reconstruct its
// dependency structure offline: every clock-advancing operation is a trace
// span, and collectives — the runtime's only cross-rank operations — carry
// a (comm, seq) identity that is equal across the member ranks of one
// collective instance.  From one Tracer this module derives, per rank, an
// ordered timeline of atomic ops —
//
//   kCompute     a gap between recorded clock-advancing events (the cost
//                hooks charge compute inside phase spans, never idle/comm)
//   kIo          a disk event that stalled the rank (sync charge, async
//                settle stall, or retry backoff)
//   kCollective  one member's view of a collective: idle until the last
//                member publishes (t_max), then the settle cost
//
// — and offers the two consumers obs/profile.hpp is built from:
//
//   critical_path(): the exact backward walk from the slowest rank's final
//   timeline position.  Time-continuous by construction: inside a
//   collective the walk jumps to the rank that published last (the member
//   that made everyone wait), and between events it attributes pure
//   compute — so the returned segments partition [0, parallel_time_s]
//   exactly and their bucket sums close to the makespan within float
//   summation error.
//
//   replay(): deterministic re-execution of the fixed DAG under
//   counterfactual cost scales (comm x0 = zero-cost network with the same
//   synchronization structure, io x0 = infinitely fast disks, per-rank
//   compute scales = redistributed load).  With all scales at 1 the replay
//   reproduces every rank's recorded finish time — the self-check
//   obs_profile_test pins — so headroom ratios are exact, not estimates.
//
// The graph can also be built by hand (tests construct a known 3-rank DAG
// and assert the walk and the replay against worked-out answers).

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mp/clock.hpp"
#include "obs/trace.hpp"

namespace pdc::obs {

/// One atomic operation on a rank's modeled timeline.
struct CritOp {
  enum class Kind : std::uint8_t { kCompute, kIo, kCollective };

  Kind kind = Kind::kCompute;
  double begin_s = 0.0;
  double end_s = 0.0;
  /// Comm cost of the op: a collective's settle cost, shared by all
  /// members.  Zero for compute/io ops.
  double cost_s = 0.0;
  /// Collective identity (kCollective only): communicator id + sequence.
  std::uint64_t comm = kNoArg;
  std::uint64_t seq = kNoArg;
  std::string name;  ///< span name (rollup/report key)
};

/// One rank's ordered, disjoint op list.  `end_s` is the rank's final
/// timeline position (>= the last op's end; the remainder is compute).
struct RankTimeline {
  std::vector<CritOp> ops;
  double end_s = 0.0;
};

/// Attribution buckets for one critical-path segment.
enum class CritBucket : std::uint8_t { kCompute, kComm, kIo, kIdle };

/// One maximal segment of the critical path on one rank.
struct CritSegment {
  int rank = 0;
  double begin_s = 0.0;
  double end_s = 0.0;
  CritBucket bucket = CritBucket::kCompute;
  /// Name of the op the segment lies in ("" for a pure-compute gap).
  std::string op;
};

/// Counterfactual cost scales for replay().  Defaults reproduce the run.
struct ReplayScales {
  double comm = 1.0;
  double io = 1.0;
  /// Per-rank local-work multipliers (empty = all 1), applied to compute
  /// and io ops alike.  The perfect-balance counterfactual sets rank r's
  /// entry to mean_busy / busy_r.
  std::vector<double> compute;
};

class CritGraph {
 public:
  /// Builds the per-rank op timelines from a recorded trace plus the final
  /// per-rank clocks.  Events before the last "clock-reset" instant on a
  /// track are discarded (the bench harness restarts the clock after data
  /// materialization, as the paper's protocol requires).
  static CritGraph from_trace(const Tracer& tracer,
                              const std::vector<mp::ClockSnapshot>& clocks);

  /// Builds from hand-made timelines (tests).  Collective groups are
  /// derived from the ops' identity fields.
  static CritGraph from_timelines(std::vector<RankTimeline> ranks);

  int nranks() const { return static_cast<int>(ranks_.size()); }
  const std::vector<RankTimeline>& ranks() const { return ranks_; }

  /// Slowest rank's final timeline position.
  double parallel_time_s() const;

  /// The exact critical path, ordered backwards in time (first element
  /// ends at parallel_time_s, last begins at 0).  Segment lengths sum to
  /// parallel_time_s.
  std::vector<CritSegment> critical_path() const;

  /// Re-executes the dependency DAG under counterfactual cost scales and
  /// returns the resulting makespan.  Scales of 1 reproduce
  /// parallel_time_s exactly.
  double replay(const ReplayScales& scales) const;

  /// Sum of compute-op and io-op time on rank r (the "busy" time the
  /// perfect-balance counterfactual redistributes).
  double rank_busy_s(int rank) const;

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;

  struct CollectiveGroup {
    std::vector<std::pair<int, std::size_t>> members;  ///< (rank, op index)
    double t_max = 0.0;  ///< latest member publish time
    int cause = 0;       ///< rank that published last (tie: lowest rank)
  };

  void index_graph();

  std::vector<RankTimeline> ranks_;
  /// Collective instances by (communicator id, collective seq).
  std::map<Key, CollectiveGroup> groups_;

  const CollectiveGroup* group_of(const CritOp& op) const;
};

}  // namespace pdc::obs
