#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

#include "obs/span_names.hpp"

namespace pdc::obs {

namespace {

/// True for the events critpath.cpp turns into atomic ops; everything else
/// (kComplete) is a phase span whose interior is tiled by atomics.
bool is_atomic(const TraceEvent& ev) {
  if (ev.comm != kNoArg && ev.site != kNoArg) return true;
  return span_names::is_io_atomic(ev.name);
}

struct PhaseSpan {
  double begin_s = 0.0;
  double end_s = 0.0;
  const std::string* name = nullptr;
  std::uint64_t depth = kNoArg;
};

/// One rank's phase spans plus the boundary times critical-path segments
/// are split at before attribution.
struct PhaseIndex {
  std::vector<PhaseSpan> spans;     // sorted by begin_s
  std::vector<double> boundaries;   // sorted, deduplicated

  /// Innermost span containing t.  Nesting is proper, so among the spans
  /// containing t the one opened last is innermost.  `need_depth`
  /// restricts the search to depth-stamped spans.
  const PhaseSpan* innermost(double t, bool need_depth) const {
    const PhaseSpan* best = nullptr;
    for (const PhaseSpan& s : spans) {
      if (s.begin_s > t) break;
      if (s.end_s <= t) continue;
      if (need_depth && s.depth == kNoArg) continue;
      best = &s;
    }
    return best;
  }
};

/// Index of the first event after the last "clock-reset" marker — events
/// before it belong to the discarded pre-measurement coordinate system
/// (same cut critpath.cpp applies).
std::size_t measured_start(const std::vector<TraceEvent>& events) {
  std::size_t start = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == TraceEvent::Kind::kInstant &&
        events[i].name == span_names::kClockReset) {
      start = i + 1;
    }
  }
  return start;
}

PhaseIndex build_phase_index(const std::vector<TraceEvent>& events) {
  PhaseIndex idx;
  const std::size_t start = measured_start(events);
  for (std::size_t i = start; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (ev.kind != TraceEvent::Kind::kComplete) continue;
    if (is_atomic(ev)) continue;
    if (ev.end_s <= ev.begin_s) continue;
    idx.spans.push_back({ev.begin_s, ev.end_s, &ev.name, ev.depth});
  }
  std::stable_sort(idx.spans.begin(), idx.spans.end(),
                   [](const PhaseSpan& a, const PhaseSpan& b) {
                     if (a.begin_s != b.begin_s) return a.begin_s < b.begin_s;
                     return a.end_s > b.end_s;  // parents before children
                   });
  idx.boundaries.reserve(idx.spans.size() * 2);
  for (const PhaseSpan& s : idx.spans) {
    idx.boundaries.push_back(s.begin_s);
    idx.boundaries.push_back(s.end_s);
  }
  std::sort(idx.boundaries.begin(), idx.boundaries.end());
  idx.boundaries.erase(
      std::unique(idx.boundaries.begin(), idx.boundaries.end()),
      idx.boundaries.end());
  return idx;
}

void add_to_slice(Profile::Slice& s, CritBucket bucket, double dt) {
  switch (bucket) {
    case CritBucket::kCompute: s.compute_s += dt; break;
    case CritBucket::kComm: s.comm_s += dt; break;
    case CritBucket::kIo: s.io_s += dt; break;
    case CritBucket::kIdle: s.idle_s += dt; break;
  }
}

std::string_view bucket_name(CritBucket b) {
  switch (b) {
    case CritBucket::kCompute: return "compute";
    case CritBucket::kComm: return "comm";
    case CritBucket::kIo: return "io";
    case CritBucket::kIdle: return "idle";
  }
  return "compute";
}

std::string_view overlay_name(CritBucket b) {
  switch (b) {
    case CritBucket::kCompute: return span_names::kCritCompute;
    case CritBucket::kComm: return span_names::kCritComm;
    case CritBucket::kIo: return span_names::kCritIo;
    case CritBucket::kIdle: return span_names::kCritIdle;
  }
  return span_names::kCritCompute;
}

Json slice_json(const Profile::Slice& s) {
  Json j = Json::make_object();
  j.set("compute_s", Json::make_number(s.compute_s));
  j.set("comm_s", Json::make_number(s.comm_s));
  j.set("io_s", Json::make_number(s.io_s));
  j.set("idle_s", Json::make_number(s.idle_s));
  return j;
}

}  // namespace

Profile build_profile(const Tracer& tracer,
                      const std::vector<mp::ClockSnapshot>& clocks) {
  Profile p;
  p.nprocs = tracer.nranks();
  for (const auto& c : clocks) p.max_idle_s = std::max(p.max_idle_s, c.idle_s);

  const CritGraph graph = CritGraph::from_trace(tracer, clocks);
  p.parallel_time_s = graph.parallel_time_s();
  p.segments = graph.critical_path();

  std::vector<PhaseIndex> phases;
  phases.reserve(static_cast<std::size_t>(tracer.nranks()));
  for (int r = 0; r < tracer.nranks(); ++r) {
    phases.push_back(build_phase_index(tracer.events(r)));
  }

  // --- attribution: split every path segment at its rank's phase
  // boundaries, credit each piece to its innermost phase and depth.  The
  // pieces tile the segments, which tile [0, parallel_time_s], so every
  // breakdown closes to the makespan.
  std::map<std::string, Profile::Slice> by_phase;
  std::map<std::uint64_t, Profile::Slice> by_depth;
  Profile::Slice outside_tree;
  bool has_outside_tree = false;
  std::map<std::string, double> crit_by_name;
  for (const CritSegment& seg : p.segments) {
    const PhaseIndex& idx = phases[static_cast<std::size_t>(seg.rank)];
    const auto lo = std::upper_bound(idx.boundaries.begin(),
                                     idx.boundaries.end(), seg.begin_s);
    double t0 = seg.begin_s;
    for (auto it = lo; it != idx.boundaries.end() && *it < seg.end_s; ++it) {
      const double t1 = *it;
      if (t1 <= t0) continue;
      const double mid = t0 + (t1 - t0) / 2.0;
      const double dt = t1 - t0;
      const PhaseSpan* ph = idx.innermost(mid, false);
      const PhaseSpan* dp = idx.innermost(mid, true);
      add_to_slice(by_phase[ph ? *ph->name : std::string()], seg.bucket, dt);
      if (dp) {
        add_to_slice(by_depth[dp->depth], seg.bucket, dt);
      } else {
        add_to_slice(outside_tree, seg.bucket, dt);
        has_outside_tree = true;
      }
      add_to_slice(p.crit, seg.bucket, dt);
      crit_by_name[seg.op.empty() ? (ph ? *ph->name : std::string())
                                  : seg.op] += dt;
      t0 = t1;
    }
    if (seg.end_s > t0) {
      const double mid = t0 + (seg.end_s - t0) / 2.0;
      const double dt = seg.end_s - t0;
      const PhaseSpan* ph = idx.innermost(mid, false);
      const PhaseSpan* dp = idx.innermost(mid, true);
      add_to_slice(by_phase[ph ? *ph->name : std::string()], seg.bucket, dt);
      if (dp) {
        add_to_slice(by_depth[dp->depth], seg.bucket, dt);
      } else {
        add_to_slice(outside_tree, seg.bucket, dt);
        has_outside_tree = true;
      }
      add_to_slice(p.crit, seg.bucket, dt);
      crit_by_name[seg.op.empty() ? (ph ? *ph->name : std::string())
                                  : seg.op] += dt;
    }
  }
  p.by_phase.assign(by_phase.begin(), by_phase.end());
  std::stable_sort(p.by_phase.begin(), p.by_phase.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.total() > b.second.total();
                   });
  for (const auto& [depth, slice] : by_depth) {
    p.by_depth.emplace_back(std::to_string(depth), slice);
  }
  if (has_outside_tree) p.by_depth.emplace_back("none", outside_tree);

  // --- rollups: count/total per span name, self time via a nesting sweep
  // (spans on one rank nest properly; sorted parents-first, a stack gives
  // each span's direct parent), crit_s from the attribution above.
  struct Acc {
    std::string cat;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double child_s = 0.0;
  };
  std::map<std::string, Acc> accs;
  for (int r = 0; r < tracer.nranks(); ++r) {
    const auto& events = tracer.events(r);
    struct Item {
      double begin_s, end_s;
      const TraceEvent* ev;
    };
    std::vector<Item> items;
    const std::size_t start = measured_start(events);
    for (std::size_t i = start; i < events.size(); ++i) {
      const TraceEvent& ev = events[i];
      if (ev.kind != TraceEvent::Kind::kComplete) continue;
      items.push_back({ev.begin_s, ev.end_s, &ev});
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) {
                       if (a.begin_s != b.begin_s) return a.begin_s < b.begin_s;
                       return a.end_s > b.end_s;
                     });
    std::vector<const Item*> stack;
    for (const Item& item : items) {
      Acc& acc = accs[item.ev->name];
      if (acc.count == 0) acc.cat = item.ev->cat;
      ++acc.count;
      acc.total_s += item.end_s - item.begin_s;
      while (!stack.empty() && stack.back()->end_s <= item.begin_s) {
        stack.pop_back();
      }
      if (!stack.empty() && stack.back()->end_s >= item.end_s) {
        accs[stack.back()->ev->name].child_s += item.end_s - item.begin_s;
      }
      stack.push_back(&item);
    }
  }
  for (auto& [name, acc] : accs) {
    Profile::Rollup roll;
    roll.name = name;
    roll.cat = acc.cat;
    roll.count = acc.count;
    roll.total_s = acc.total_s;
    roll.self_s = acc.total_s - acc.child_s;
    const auto it = crit_by_name.find(name);
    roll.crit_s = it == crit_by_name.end() ? 0.0 : it->second;
    p.rollups.push_back(std::move(roll));
  }
  std::stable_sort(p.rollups.begin(), p.rollups.end(),
                   [](const Profile::Rollup& a, const Profile::Rollup& b) {
                     if (a.crit_s != b.crit_s) return a.crit_s > b.crit_s;
                     if (a.total_s != b.total_s) return a.total_s > b.total_s;
                     return a.name < b.name;
                   });

  // --- what-if projections on the fixed DAG.
  p.t_baseline_s = graph.replay({});
  ReplayScales comm_free;
  comm_free.comm = 0.0;
  p.t_comm_free_s = graph.replay(comm_free);
  ReplayScales io_free;
  io_free.io = 0.0;
  p.t_io_free_s = graph.replay(io_free);
  ReplayScales balanced;
  double busy_sum = 0.0;
  for (int r = 0; r < graph.nranks(); ++r) busy_sum += graph.rank_busy_s(r);
  const double busy_mean =
      graph.nranks() > 0 ? busy_sum / graph.nranks() : 0.0;
  for (int r = 0; r < graph.nranks(); ++r) {
    const double busy = graph.rank_busy_s(r);
    balanced.compute.push_back(busy > 0.0 ? busy_mean / busy : 1.0);
  }
  p.t_balanced_s = graph.replay(balanced);
  const auto headroom = [&p](double t_whatif) {
    return t_whatif > 0.0 ? p.t_baseline_s / t_whatif
                          : (p.t_baseline_s > 0.0 ? 0.0 : 1.0);
  };
  p.headroom_comm = headroom(p.t_comm_free_s);
  p.headroom_io = headroom(p.t_io_free_s);
  p.headroom_balance = headroom(p.t_balanced_s);
  return p;
}

Json Profile::to_json() const {
  const auto num = [](double v) { return Json::make_number(v); };
  const auto str = [](std::string_view v) {
    return Json::make_string(std::string(v));
  };
  Json doc = Json::make_object();
  doc.set("schema", str("pdc.profile.v1"));
  doc.set("nprocs", num(nprocs));
  doc.set("parallel_time_s", num(parallel_time_s));
  doc.set("max_idle_s", num(max_idle_s));
  doc.set("crit", slice_json(crit));
  Json jphase = Json::make_object();
  for (const auto& [name, slice] : by_phase) {
    jphase.set(name, slice_json(slice));
  }
  doc.set("by_phase", std::move(jphase));
  Json jdepth = Json::make_object();
  for (const auto& [key, slice] : by_depth) jdepth.set(key, slice_json(slice));
  doc.set("by_depth", std::move(jdepth));
  Json jrollups = Json::make_array();
  for (const Rollup& r : rollups) {
    Json jr = Json::make_object();
    jr.set("name", str(r.name));
    jr.set("cat", str(r.cat));
    jr.set("count", Json::make_uint(r.count));
    jr.set("total_s", num(r.total_s));
    jr.set("self_s", num(r.self_s));
    jr.set("crit_s", num(r.crit_s));
    jrollups.push_back(std::move(jr));
  }
  doc.set("rollups", std::move(jrollups));
  Json jwhatif = Json::make_object();
  jwhatif.set("t_baseline_s", num(t_baseline_s));
  jwhatif.set("t_comm_free_s", num(t_comm_free_s));
  jwhatif.set("t_io_free_s", num(t_io_free_s));
  jwhatif.set("t_balanced_s", num(t_balanced_s));
  jwhatif.set("headroom_comm", num(headroom_comm));
  jwhatif.set("headroom_io", num(headroom_io));
  jwhatif.set("headroom_balance", num(headroom_balance));
  doc.set("whatif", std::move(jwhatif));
  Json jsegments = Json::make_array();
  for (const CritSegment& seg : segments) {
    Json js = Json::make_object();
    js.set("rank", num(seg.rank));
    js.set("begin_s", num(seg.begin_s));
    js.set("end_s", num(seg.end_s));
    js.set("bucket", str(bucket_name(seg.bucket)));
    js.set("op", str(seg.op));
    jsegments.push_back(std::move(js));
  }
  doc.set("segments", std::move(jsegments));
  return doc;
}

std::vector<std::pair<int, TraceEvent>> overlay_events(const Profile& p) {
  std::vector<std::pair<int, TraceEvent>> out;
  out.reserve(p.segments.size());
  for (const CritSegment& s : p.segments) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kComplete;
    ev.name = overlay_name(s.bucket);
    ev.cat = "critpath";
    ev.begin_s = s.begin_s;
    ev.end_s = s.end_s;
    out.emplace_back(s.rank, std::move(ev));
  }
  return out;
}

std::string format_profile_summary(const Profile& p) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "critical path: %.6f s over %d ranks (max rank idle %.6f s)\n",
                p.parallel_time_s, p.nprocs, p.max_idle_s);
  out += buf;
  const double t = p.parallel_time_s > 0.0 ? p.parallel_time_s : 1.0;
  std::snprintf(buf, sizeof(buf),
                "  compute %.6f s (%5.1f%%)  comm %.6f s (%5.1f%%)  io %.6f s "
                "(%5.1f%%)  idle %.6f s (%5.1f%%)\n",
                p.crit.compute_s, 100.0 * p.crit.compute_s / t, p.crit.comm_s,
                100.0 * p.crit.comm_s / t, p.crit.io_s,
                100.0 * p.crit.io_s / t, p.crit.idle_s,
                100.0 * p.crit.idle_s / t);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "what-if headroom: comm->0 %.3fx  disks->inf %.3fx  perfect "
                "balance %.3fx\n",
                p.headroom_comm, p.headroom_io, p.headroom_balance);
  out += buf;
  std::size_t shown = 0;
  for (const Profile::Rollup& r : p.rollups) {
    if (r.crit_s <= 0.0 || shown >= 5) break;
    std::snprintf(buf, sizeof(buf), "  top: %-24s crit %.6f s (%5.1f%%)\n",
                  r.name.c_str(), r.crit_s, 100.0 * r.crit_s / t);
    out += buf;
    ++shown;
  }
  return out;
}

}  // namespace pdc::obs
