#include "clouds/splitters.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>

#include "clouds/estimate.hpp"
#include "obs/mem_gauge.hpp"

namespace pdc::clouds {

namespace {

/// Every index below `n`, ascending: what the sequential methods own.
std::vector<std::size_t> every_index(std::size_t n) {
  std::vector<std::size_t> out(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  return out;
}

/// The exact sweep of SSE's alive intervals and of the direct method: sorts
/// `points` by value (sort_by_value) and scores "value <= v" at each
/// distinct value v, where `left` holds the counts already left of the
/// points and `total` the node's.  A group of equal values (-0.0 with +0.0)
/// takes the bits of its first value.  The sweep ends where the right side
/// would be empty and at the first NaN, which stays right as
/// Split::goes_left sends it.  Charges one sort and one gini per point.
SplitCandidate sweep_values(int attr, std::vector<AlivePoint>& points,
                            data::ClassCounts left,
                            const data::ClassCounts& total,
                            const CostHooks& hooks) {
  SplitCandidate best;
  if (points.empty()) return best;
  sort_by_value(points, [](const AlivePoint& p) { return p.value; });
  hooks.charge_sort(points.size());

  std::size_t i = 0;
  while (i < points.size() && !std::isnan(points[i].value)) {
    const float v = points[i].value;
    for (; i < points.size() && points[i].value == v; ++i) {
      ++left[static_cast<std::size_t>(points[i].label)];
    }
    const auto right = total - left;
    if (data::total(right) == 0) break;  // split at max value: useless
    Split s;
    s.kind = Split::Kind::kNumeric;
    s.attr = static_cast<std::int8_t>(attr);
    s.threshold = v;
    best.consider(split_gini(left, right), s);
  }
  hooks.charge_gini(points.size());
  return best;
}

}  // namespace

NodeStats NodeStats::with_boundaries(std::span<const data::Record> sample,
                                     int q) {
  NodeStats stats;
  stats.hists = build_interval_hists(sample, q);
  stats.cats = make_count_matrices();
  return stats;
}

void NodeStats::add(const data::Record& r) {
  std::array<std::span<const float>, data::kNumNumeric> bounds;
  for (std::size_t a = 0; a < bounds.size(); ++a) bounds[a] = hists[a].bounds;
  const auto bin = lower_bound_lanes(bounds, r.num);
  const auto label = static_cast<std::size_t>(r.label);
  for (std::size_t a = 0; a < bin.size(); ++a) ++hists[a].freq[bin[a]][label];
  for (auto& m : cats) m.add(r);
  ++counts[label];
}

void collect_stats(const io::Scan<data::Record>& scan, NodeStats& stats,
                   const CostHooks& hooks) {
  // Per-record charging (not one bulk charge after the pass) so compute
  // accrues between block reaps — what the async pipeline hides I/O under.
  scan([&](const data::Record& r) {
    stats.add(r);
    hooks.charge_scan(static_cast<std::uint64_t>(data::kNumAttributes));
  });
}

SplitCandidate evaluate_owned_boundaries(const IntervalHist& hist, int attr,
                                         std::span<const std::size_t> owned,
                                         std::uint64_t& evaluated) {
  SplitCandidate best;
  const auto total = hist.total_counts();
  data::ClassCounts left{};  // intervals 0..j, the side "value <= bounds[j]"
  std::size_t next = 0;
  for (const std::size_t j : owned) {
    for (; next <= j; ++next) left += hist.freq[next];
    const auto right = total - left;
    if (data::total(left) == 0 || data::total(right) == 0) continue;
    Split s;
    s.kind = Split::Kind::kNumeric;
    s.attr = static_cast<std::int8_t>(attr);
    s.threshold = hist.bounds[j];
    best.consider(split_gini(left, right), s);
  }
  evaluated += owned.size();
  return best;
}

SplitCandidate evaluate_boundaries(const IntervalHist& hist, int attr,
                                   const CostHooks& hooks) {
  std::uint64_t evaluated = 0;
  const auto best = evaluate_owned_boundaries(
      hist, attr, every_index(hist.bounds.size()), evaluated);
  hooks.charge_gini(evaluated);
  return best;
}

SplitCandidate ss_split(const NodeStats& stats, const CostHooks& hooks) {
  auto sp = hooks.span("gini-evaluation", "clouds");
  SplitCandidate best;
  for (int a = 0; a < data::kNumNumeric; ++a) {
    best.consider(
        evaluate_boundaries(stats.hists[static_cast<std::size_t>(a)], a,
                            hooks));
  }
  for (const auto& m : stats.cats) {
    best.consider(best_categorical_split(m));
    hooks.charge_gini(m.counts.size() * m.counts.size());
  }
  return best;
}

void owned_alive_intervals(const IntervalHist& hist, int attr,
                           std::span<const std::size_t> owned,
                           double gini_min, std::vector<AliveInterval>& alive,
                           std::uint64_t& evaluated) {
  const auto total = hist.total_counts();
  data::ClassCounts before{};  // intervals 0..j-1
  std::size_t next = 0;
  for (const std::size_t j : owned) {
    for (; next < j; ++next) before += hist.freq[next];
    const auto& inside = hist.freq[j];
    // Intervals with <= 1 point cannot contain a split strictly better
    // than its boundaries.
    if (data::total(inside) <= 1) continue;
    ++evaluated;
    const auto after = total - before - inside;
    const double est = gini_lower_bound(before, inside, after);
    if (est < gini_min) {
      AliveInterval iv;
      iv.attr = attr;
      iv.interval = j;
      iv.unbounded_lo = (j == 0);
      iv.unbounded_hi = (j == hist.bounds.size());
      iv.lo = iv.unbounded_lo ? std::numeric_limits<float>::lowest()
                              : hist.bounds[j - 1];
      iv.hi = iv.unbounded_hi ? std::numeric_limits<float>::max()
                              : hist.bounds[j];
      iv.before = before;
      iv.inside = inside;
      iv.after = after;
      iv.gini_est = est;
      alive.push_back(iv);
    }
  }
}

std::vector<AliveInterval> find_alive_intervals(const NodeStats& stats,
                                                double gini_min,
                                                const CostHooks& hooks) {
  std::vector<AliveInterval> alive;
  for (int a = 0; a < data::kNumNumeric; ++a) {
    const auto& hist = stats.hists[static_cast<std::size_t>(a)];
    std::uint64_t evaluated = 0;
    owned_alive_intervals(hist, a, every_index(hist.interval_count()),
                          gini_min, alive, evaluated);
    hooks.charge_gini(hist.interval_count() * (1u << data::kNumClasses));
  }
  return alive;
}

std::vector<AliveRun> alive_runs(std::span<const AliveInterval> alive) {
  std::vector<AliveRun> runs;
  for (std::size_t k = 0; k < alive.size(); ++k) {
    const auto& iv = alive[k];
    if (iv.attr < 0 || iv.attr >= data::kNumNumeric) {
      throw std::logic_error("scan_alive: alive interval of attribute " +
                             std::to_string(iv.attr) +
                             " is not a numeric attribute");
    }
    if (k > 0 && (alive[k - 1].attr > iv.attr ||
                  (alive[k - 1].attr == iv.attr &&
                   alive[k - 1].interval >= iv.interval))) {
      throw std::logic_error(
          "scan_alive: alive intervals are not ordered by (attr, interval)");
    }
    if (runs.empty() || runs.back().attr != static_cast<std::size_t>(iv.attr)) {
      runs.push_back({static_cast<std::size_t>(iv.attr), k, {}});
    }
    runs.back().upper.push_back(
        iv.unbounded_hi ? std::numeric_limits<float>::infinity() : iv.hi);
  }
  return runs;
}

double survival_ratio(std::span<const AliveInterval> alive,
                      const data::ClassCounts& node_counts) {
  const double n = static_cast<double>(data::total(node_counts));
  if (n <= 0.0) return 0.0;
  double inside = 0.0;
  for (const auto& iv : alive) {
    inside += static_cast<double>(data::total(iv.inside));
  }
  return inside / n;
}

SplitCandidate evaluate_alive_interval(const AliveInterval& iv,
                                       std::vector<AlivePoint> points,
                                       const CostHooks& hooks) {
  data::ClassCounts node_total = iv.before;
  node_total += iv.inside;
  node_total += iv.after;
  return sweep_values(iv.attr, points, iv.before, node_total, hooks);
}

SplitCandidate sse_split(const NodeStats& stats,
                         const io::Scan<data::Record>& scan,
                         const CostHooks& hooks, SseDiag* diag) {
  SplitCandidate best = ss_split(stats, hooks);
  const double gini_boundary = best.valid
                                   ? best.gini
                                   : std::numeric_limits<double>::infinity();
  auto alive = find_alive_intervals(stats, gini_boundary, hooks);

  std::uint64_t harvested = 0;
  if (!alive.empty()) {
    auto sp = hooks.span("alive-evaluation", "clouds", alive.size());
    // Second pass: harvest the points that fall inside alive intervals.
    obs::MemCharge harvest_mem(hooks.mem, 0);
    std::vector<std::vector<AlivePoint>> buckets(alive.size());
    scan_alive(scan, alive, hooks,
               [&](std::size_t k, float v, std::int8_t label) {
                 // pdc: incore(alive point harvest: survival-bounded, one bucket per interval, freed after evaluation)
                 buckets[k].push_back({v, label});
                 harvest_mem.add(sizeof(AlivePoint));
                 ++harvested;
               });

    for (std::size_t k = 0; k < alive.size(); ++k) {
      best.consider(
          evaluate_alive_interval(alive[k], std::move(buckets[k]), hooks));
    }
  }

  if (diag) {
    diag->gini_boundary = gini_boundary;
    diag->gini_final = best.gini;
    diag->alive_intervals = alive.size();
    diag->survival = survival_ratio(alive, stats.counts);
    diag->second_pass_points = harvested;
  }
  return best;
}

SplitCandidate direct_split(std::span<const data::Record> records,
                            const CostHooks& hooks) {
  SplitCandidate best;
  if (records.empty()) return best;

  data::ClassCounts total{};
  for (const auto& r : records) {
    ++total[static_cast<std::size_t>(r.label)];
  }

  std::vector<AlivePoint> column(records.size());
  for (int a = 0; a < data::kNumNumeric; ++a) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      column[i] = {records[i].num[static_cast<std::size_t>(a)],
                   records[i].label};
    }
    best.consider(sweep_values(a, column, {}, total, hooks));
  }

  auto cats = make_count_matrices();
  for (const auto& r : records) {
    for (auto& m : cats) m.add(r);
  }
  hooks.charge_scan(records.size() *
                    static_cast<std::uint64_t>(data::kNumCategorical));
  for (const auto& m : cats) {
    best.consider(best_categorical_split(m));
    hooks.charge_gini(m.counts.size() * m.counts.size());
  }
  return best;
}

}  // namespace pdc::clouds
