#include "obs/critpath.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "obs/span_names.hpp"

namespace pdc::obs {

namespace {

/// Sorts a rank's ops by position and materializes the pure-compute gaps
/// between them (plus the leading and trailing stretches), so the op list
/// tiles [0, end_s] exactly.  The cost hooks charge compute inside phase
/// spans and never record it as a separate clock-advancing event, so any
/// timeline advance outside a recorded atomic op is compute by
/// construction.
void normalize_timeline(RankTimeline& tl) {
  std::stable_sort(tl.ops.begin(), tl.ops.end(),
                   [](const CritOp& a, const CritOp& b) {
                     if (a.begin_s != b.begin_s) return a.begin_s < b.begin_s;
                     return a.end_s < b.end_s;
                   });
  std::vector<CritOp> tiled;
  tiled.reserve(tl.ops.size() * 2 + 2);
  double cursor = 0.0;
  for (CritOp& op : tl.ops) {
    if (op.begin_s > cursor) {
      CritOp gap;
      gap.kind = CritOp::Kind::kCompute;
      gap.begin_s = cursor;
      gap.end_s = op.begin_s;
      tiled.push_back(std::move(gap));
    }
    cursor = std::max(cursor, op.end_s);
    tiled.push_back(std::move(op));
  }
  if (tl.end_s > cursor) {
    CritOp gap;
    gap.kind = CritOp::Kind::kCompute;
    gap.begin_s = cursor;
    gap.end_s = tl.end_s;
    tiled.push_back(std::move(gap));
  }
  tl.ops = std::move(tiled);
}

}  // namespace

CritGraph CritGraph::from_trace(const Tracer& tracer,
                                const std::vector<mp::ClockSnapshot>& clocks) {
  if (static_cast<int>(clocks.size()) != tracer.nranks()) {
    throw std::invalid_argument("CritGraph: clocks/tracer rank mismatch");
  }
  std::vector<RankTimeline> ranks(clocks.size());
  for (int r = 0; r < tracer.nranks(); ++r) {
    const auto& events = tracer.events(r);
    // The bench harness resets the clock after materialization; events
    // recorded before the (last) reset marker live in the pre-reset
    // coordinate system and are not part of the measured run.  Track
    // order is execution order, so an index cut is exact.
    std::size_t start = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind == TraceEvent::Kind::kInstant &&
          events[i].name == span_names::kClockReset) {
        start = i + 1;
      }
    }
    RankTimeline& tl = ranks[static_cast<std::size_t>(r)];
    tl.end_s = clocks[static_cast<std::size_t>(r)].total();
    for (std::size_t i = start; i < events.size(); ++i) {
      const TraceEvent& ev = events[i];
      if (ev.kind != TraceEvent::Kind::kComplete) continue;
      CritOp op;
      op.begin_s = ev.begin_s;
      op.end_s = ev.end_s;
      op.name = ev.name;
      if (ev.comm != kNoArg && ev.site != kNoArg) {
        op.kind = CritOp::Kind::kCollective;
        op.comm = ev.comm;
        op.seq = ev.seq;
      } else if (span_names::is_io_atomic(ev.name)) {
        op.kind = CritOp::Kind::kIo;
      } else {
        continue;  // phase span: its clock time is covered by atomic ops
      }
      tl.ops.push_back(std::move(op));
    }
  }
  return from_timelines(std::move(ranks));
}

CritGraph CritGraph::from_timelines(std::vector<RankTimeline> ranks) {
  CritGraph g;
  g.ranks_ = std::move(ranks);
  for (auto& tl : g.ranks_) normalize_timeline(tl);
  g.index_graph();
  return g;
}

void CritGraph::index_graph() {
  groups_.clear();
  for (int r = 0; r < nranks(); ++r) {
    auto& ops = ranks_[static_cast<std::size_t>(r)].ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const CritOp& op = ops[i];
      if (op.kind == CritOp::Kind::kCollective && op.comm != kNoArg) {
        groups_[{op.comm, op.seq}].members.emplace_back(r, i);
      }
    }
  }
  for (auto& [key, group] : groups_) {
    group.t_max = 0.0;
    group.cause = group.members.front().first;
    for (const auto& [r, i] : group.members) {
      const double publish =
          ranks_[static_cast<std::size_t>(r)].ops[i].begin_s;
      if (publish > group.t_max) {
        group.t_max = publish;
        group.cause = r;
      }
    }
    // Settle cost: identical across members (everyone waits to t_max and
    // charges the same formula), so derive it once from any member's end.
    for (const auto& [r, i] : group.members) {
      CritOp& op = ranks_[static_cast<std::size_t>(r)].ops[i];
      op.cost_s = std::max(0.0, op.end_s - group.t_max);
    }
  }
}

const CritGraph::CollectiveGroup* CritGraph::group_of(const CritOp& op) const {
  if (op.comm == kNoArg) return nullptr;
  const auto it = groups_.find({op.comm, op.seq});
  return it == groups_.end() ? nullptr : &it->second;
}

double CritGraph::parallel_time_s() const {
  double t = 0.0;
  for (const auto& tl : ranks_) t = std::max(t, tl.end_s);
  return t;
}

double CritGraph::rank_busy_s(int rank) const {
  double busy = 0.0;
  for (const auto& op : ranks_[static_cast<std::size_t>(rank)].ops) {
    if (op.kind == CritOp::Kind::kCompute || op.kind == CritOp::Kind::kIo) {
      busy += op.end_s - op.begin_s;
    }
  }
  return busy;
}

std::vector<CritSegment> CritGraph::critical_path() const {
  std::vector<CritSegment> out;
  if (ranks_.empty()) return out;

  int r = 0;
  for (int i = 1; i < nranks(); ++i) {
    if (ranks_[static_cast<std::size_t>(i)].end_s >
        ranks_[static_cast<std::size_t>(r)].end_s) {
      r = i;
    }
  }
  double t = ranks_[static_cast<std::size_t>(r)].end_s;

  const auto emit = [&out](int rank, double t0, double t1, CritBucket b,
                           const std::string& op) {
    if (t1 > t0) out.push_back({rank, t0, t1, b, op});
  };

  // Per-rank backward cursors.  Global time only decreases, so an op
  // skipped as "future" on some rank can never be needed again.
  std::vector<std::size_t> cursor(ranks_.size());
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    cursor[i] = ranks_[i].ops.size();
  }

  while (t > 0.0) {
    const auto ur = static_cast<std::size_t>(r);
    const auto& ops = ranks_[ur].ops;
    std::size_t& c = cursor[ur];
    while (c > 0 && ops[c - 1].begin_s >= t) --c;
    if (c == 0) {
      // Nothing recorded before t on this rank: leading compute.
      emit(r, 0.0, t, CritBucket::kCompute, "");
      break;
    }
    const CritOp& op = ops[c - 1];
    if (op.end_s < t) {
      // Hole between ops (possible only in hand-built graphs; real
      // timelines are tiled by normalize_timeline): pure compute.
      emit(r, op.end_s, t, CritBucket::kCompute, "");
      t = op.end_s;
      continue;
    }
    // We are inside `op`, entering from its right edge (t == op.end_s up
    // to float noise; jumps always land on op boundaries).
    --c;
    switch (op.kind) {
      case CritOp::Kind::kCompute:
        emit(r, op.begin_s, t, CritBucket::kCompute, op.name);
        t = op.begin_s;
        break;
      case CritOp::Kind::kIo:
        emit(r, op.begin_s, t, CritBucket::kIo, op.name);
        t = op.begin_s;
        break;
      case CritOp::Kind::kCollective: {
        const CollectiveGroup* g = group_of(op);
        if (!g) {
          emit(r, op.begin_s, t, CritBucket::kComm, op.name);
          t = op.begin_s;
          break;
        }
        // (t_max, end] is the settle cost every member pays; the wait up
        // to t_max is caused by the member that published last, so the
        // path continues there (possibly this very rank).
        emit(r, g->t_max, t, CritBucket::kComm, op.name);
        t = g->t_max;
        r = g->cause;
        break;
      }
    }
  }
  return out;
}

double CritGraph::replay(const ReplayScales& scales) const {
  const std::size_t p = ranks_.size();
  std::vector<double> now(p, 0.0);
  std::vector<std::size_t> idx(p, 0);
  std::map<Key, std::map<int, double>> arrivals;
  std::map<Key, double> coll_done;

  std::size_t remaining = 0;
  for (const auto& tl : ranks_) remaining += tl.ops.size();

  const auto cscale = [&](std::size_t r) {
    return scales.compute.empty() ? 1.0 : scales.compute[r];
  };

  while (remaining > 0) {
    bool progress = false;
    for (std::size_t r = 0; r < p; ++r) {
      const auto& ops = ranks_[r].ops;
      while (idx[r] < ops.size()) {
        const CritOp& op = ops[idx[r]];
        const double dur = op.end_s - op.begin_s;
        bool blocked = false;
        switch (op.kind) {
          case CritOp::Kind::kCompute:
            now[r] += dur * cscale(r);
            break;
          case CritOp::Kind::kIo:
            now[r] += dur * scales.io * cscale(r);
            break;
          case CritOp::Kind::kCollective: {
            const CollectiveGroup* g = group_of(op);
            if (!g || g->members.size() < 2) {
              now[r] += op.cost_s * scales.comm;
              break;
            }
            const Key key{op.comm, op.seq};
            auto& arr = arrivals[key];
            arr.emplace(static_cast<int>(r), now[r]);
            const auto done = coll_done.find(key);
            if (done != coll_done.end()) {
              now[r] = done->second;
              break;
            }
            if (arr.size() == g->members.size()) {
              double t_max = 0.0;
              for (const auto& [rank, at] : arr) t_max = std::max(t_max, at);
              const double finish = t_max + op.cost_s * scales.comm;
              coll_done.emplace(key, finish);
              now[r] = finish;
              break;
            }
            blocked = true;  // wait for the remaining members
            break;
          }
        }
        if (blocked) break;
        ++idx[r];
        --remaining;
        progress = true;
      }
    }
    if (!progress) {
      // Inconsistent hand-built graph (two ranks entering the same two
      // collectives in opposite orders): refuse to spin.
      throw std::logic_error("CritGraph::replay: dependency deadlock");
    }
  }

  double makespan = 0.0;
  for (const double t : now) makespan = std::max(makespan, t);
  return makespan;
}

}  // namespace pdc::obs
