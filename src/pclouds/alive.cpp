#include "pclouds/alive.hpp"

#include <algorithm>
#include <cmath>

#include "dc/lpt.hpp"
#include "obs/mem_gauge.hpp"
#include "pclouds/combiners.hpp"

namespace pdc::pclouds {

namespace {

/// A harvested point on the wire: which alive interval it belongs to, its
/// attribute value, and its class.
struct WirePoint {
  float value;
  std::int32_t interval;  ///< index into the alive list
  std::int8_t label;
};
static_assert(std::is_trivially_copyable_v<WirePoint>);

}  // namespace

AliveOutcome evaluate_alive_parallel(
    mp::Comm& comm, std::span<const clouds::AliveInterval> alive,
    const clouds::SplitCandidate& boundary_best,
    const data::ClassCounts& node_counts,
    const io::Scan<data::Record>& scan, const clouds::CostHooks& hooks) {
  auto sp = hooks.span("alive-evaluation", "pclouds", alive.size());
  AliveOutcome out;
  out.best = boundary_best;
  out.survival = clouds::survival_ratio(alive, node_counts);
  if (alive.empty()) return out;

  // Single assignment: owner per interval from the sorting cost, computed
  // identically on every rank (interval sizes are global statistics).
  std::vector<double> costs(alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    const double n = static_cast<double>(data::total(alive[i].inside));
    costs[i] = n <= 1.0 ? 1.0 : n * std::log2(n);
  }
  const auto assign = dc::lpt_assign(costs, comm.size());

  // Harvest pass: route each local in-interval point to the owner.
  obs::MemCharge staged_mem(hooks.mem, 0);
  std::vector<std::vector<WirePoint>> outgoing(
      static_cast<std::size_t>(comm.size()));
  clouds::scan_alive(
      scan, alive, hooks, [&](std::size_t i, float v, std::int8_t label) {
        // pdc: incore(alive point routing: survival-bounded, only in-interval points are staged for the exchange)
        outgoing[static_cast<std::size_t>(assign.owner[i])].push_back(
            {v, static_cast<std::int32_t>(i), label});
        staged_mem.add(sizeof(WirePoint));
        ++out.points_shipped;
      });

  const auto incoming = comm.all_to_all<WirePoint>(outgoing);

  // Bucket received points per owned interval and evaluate exactly.
  std::vector<std::vector<clouds::AlivePoint>> buckets(alive.size());
  for (const auto& from_rank : incoming) {
    for (const auto& wp : from_rank) {
      buckets[static_cast<std::size_t>(wp.interval)].push_back(
          {wp.value, wp.label});
    }
  }
  clouds::SplitCandidate local_best;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (assign.owner[i] != comm.rank()) continue;
    local_best.consider(clouds::evaluate_alive_interval(
        alive[i], std::move(buckets[i]), hooks));
  }

  auto global_best = reduce_candidates(comm, local_best);
  if (clouds::candidate_less(global_best, out.best)) out.best = global_best;
  return out;
}

}  // namespace pdc::pclouds
