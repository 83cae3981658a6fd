#pragma once

// Split derivation at a tree node: the SS method, the SSE method (gini
// lower bounds -> alive intervals -> exact re-evaluation) and the direct
// method (full sort, every point evaluated) used for small in-memory nodes
// and as the quality baseline.
//
// All three consume a NodeStats built by collect_stats() in one sequential
// pass over the node's data; SSE makes one further pass (scan_alive()) to
// gather the points of alive intervals.

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "clouds/categorical.hpp"
#include "clouds/cost_hooks.hpp"
#include "clouds/intervals.hpp"
#include "clouds/split.hpp"
#include "data/record.hpp"
#include "io/pipeline.hpp"

namespace pdc::clouds {

/// Everything one pass over a node's data yields: interval class-frequency
/// histograms for every numeric attribute, count matrices for every
/// categorical attribute, and the node's class counts.
struct NodeStats {
  std::vector<IntervalHist> hists;  ///< size kNumNumeric
  std::vector<CountMatrix> cats;    ///< size kNumCategorical
  data::ClassCounts counts{};

  /// Zeroed stats with boundaries built from the node's sample.
  static NodeStats with_boundaries(std::span<const data::Record> sample,
                                   int q);

  void add(const data::Record& r);
};

/// One pass over `scan`, filling `stats` (whose boundaries must already be
/// set).  This is the paper's "evaluation of interval boundaries" data scan,
/// run by the sequential builder and by pCLOUDS alike.
void collect_stats(const io::Scan<data::Record>& scan, NodeStats& stats,
                   const CostHooks& hooks);

/// The boundary-candidate rule, over the boundaries of one numeric
/// attribute listed in `owned` (ascending indices into hist.bounds):
/// boundary j proposes "value <= bounds[j]", unless one side would be
/// empty.  Adds every owned boundary to `evaluated` and charges nothing;
/// the caller charges what was evaluated.  The sequential methods below
/// and pCLOUDS's owned work assignments both run this one rule.
SplitCandidate evaluate_owned_boundaries(const IntervalHist& hist, int attr,
                                         std::span<const std::size_t> owned,
                                         std::uint64_t& evaluated);

/// Best split among the interval boundaries of one numeric attribute,
/// charging one gini evaluation per boundary.
SplitCandidate evaluate_boundaries(const IntervalHist& hist, int attr,
                                   const CostHooks& hooks);

/// Best split among all boundary points and all categorical splits — the
/// full SS method decision given collected stats (gini_min in the paper).
SplitCandidate ss_split(const NodeStats& stats, const CostHooks& hooks);

/// An interval whose gini lower bound beats gini_min, queued for exact
/// re-evaluation.
struct AliveInterval {
  int attr = 0;
  std::size_t interval = 0;
  float lo = 0.0f;               ///< exclusive; -inf encoded by lowest float
  float hi = 0.0f;               ///< inclusive; +inf encoded by highest float
  bool unbounded_lo = false;
  bool unbounded_hi = false;
  data::ClassCounts before{};    ///< counts strictly left of the interval
  data::ClassCounts inside{};
  data::ClassCounts after{};
  double gini_est = 0.0;

  bool contains(float v) const {
    const bool above = unbounded_lo || v > lo;
    const bool below = unbounded_hi || v <= hi;
    return above && below;
  }
};

/// The alive-interval rule, over the intervals of one numeric attribute
/// listed in `owned` (ascending indices into hist.freq): an interval with
/// more than one point is evaluated, and is alive when its gini lower bound
/// beats `gini_min`.  Appends the alive ones to `alive` in index order,
/// adds the evaluated ones to `evaluated` and charges nothing.
void owned_alive_intervals(const IntervalHist& hist, int attr,
                           std::span<const std::size_t> owned,
                           double gini_min, std::vector<AliveInterval>& alive,
                           std::uint64_t& evaluated);

/// Determine the alive intervals of every numeric attribute given the
/// current global minimum gini, charging every interval's lower bound
/// whether or not it holds enough points to be evaluated.
std::vector<AliveInterval> find_alive_intervals(const NodeStats& stats,
                                                double gini_min,
                                                const CostHooks& hooks);

/// Ratio of points inside alive intervals to the node size — the paper's
/// "survival ratio", the knob that drives SSE's second-pass I/O volume.
double survival_ratio(std::span<const AliveInterval> alive,
                      const data::ClassCounts& node_counts);

/// A (value, label) point harvested from an alive interval.
struct AlivePoint {
  float value;
  std::int8_t label;
};

/// The alive list grouped by attribute, as scan_alive searches it: one run
/// per attribute that has alive intervals, with the index of its first
/// interval in the list and its intervals' upper edges in list order (+inf
/// for an unbounded one).
struct AliveRun {
  std::size_t attr = 0;
  std::size_t first = 0;
  std::vector<float> upper;
};

/// Groups `alive` into runs.  Throws std::logic_error unless every interval
/// is of a numeric attribute and the list is strictly ordered by (attr,
/// interval), the order find_alive_intervals and share_alive produce: then
/// the intervals of one attribute, cut from one histogram, are disjoint and
/// their upper edges ascend.
std::vector<AliveRun> alive_runs(std::span<const AliveInterval> alive);

/// SSE's harvest pass: calls `take(k, value, label)` for every record value
/// that falls inside alive interval `alive[k]`, in list order, charging one
/// scan step per alive interval per record.  Per record and per run, a
/// one-lane lower_bound_lanes over the run's upper edges finds the one
/// interval that can contain the value, and `contains` decides: O(sum of
/// log |run|) per record rather than O(|alive|), with the same take calls
/// as testing every interval.  The only alive-harvest loop: sse_split()
/// buckets the points locally, pCLOUDS routes them to interval owners.
template <class Take>
void scan_alive(const io::Scan<data::Record>& scan,
                std::span<const AliveInterval> alive, const CostHooks& hooks,
                Take&& take) {
  const auto runs = alive_runs(alive);
  scan([&](const data::Record& r) {
    for (const auto& run : runs) {
      const float v = r.num[run.attr];
      const std::size_t j =
          lower_bound_lanes<1>({std::span<const float>(run.upper)}, {v})[0];
      // Past every upper edge (a value above them all, or NaN) the last
      // interval is tested instead; only a whole-range interval holds v.
      const std::size_t k = run.first + std::min(j, run.upper.size() - 1);
      if (alive[k].contains(v)) take(k, v, r.label);
    }
    hooks.charge_scan(alive.size());
  });
}

/// Exact evaluation of one alive interval given its harvested points:
/// sorts them and computes gini at every distinct value.
SplitCandidate evaluate_alive_interval(const AliveInterval& iv,
                                       std::vector<AlivePoint> points,
                                       const CostHooks& hooks);

/// Diagnostics from an SSE split derivation.
struct SseDiag {
  double gini_boundary = 0.0;  ///< best gini among boundaries/categoricals
  double gini_final = 0.0;
  std::size_t alive_intervals = 0;
  double survival = 0.0;       ///< fraction of points requiring the 2nd pass
  std::uint64_t second_pass_points = 0;
};

/// The full sequential SSE method: boundary evaluation, aliveness, one
/// extra pass over `scan` to harvest alive points, exact re-evaluation.
SplitCandidate sse_split(const NodeStats& stats,
                         const io::Scan<data::Record>& scan,
                         const CostHooks& hooks, SseDiag* diag = nullptr);

/// Direct method: sort every numeric attribute and evaluate gini at every
/// distinct point; categorical attributes from the count matrices.  Used
/// in-memory for small nodes and as the quality reference.
SplitCandidate direct_split(std::span<const data::Record> records,
                            const CostHooks& hooks);

}  // namespace pdc::clouds
