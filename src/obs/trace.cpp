#include "obs/trace.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/json.hpp"

namespace pdc::obs {

Tracer::Tracer(int nranks) {
  if (nranks < 1) throw std::invalid_argument("Tracer: nranks must be >= 1");
  tracks_.resize(static_cast<std::size_t>(nranks));
}

Tracer::Track& Tracer::track(int rank) {
  return tracks_.at(static_cast<std::size_t>(rank));
}

const std::vector<TraceEvent>& Tracer::events(int rank) const {
  return tracks_.at(static_cast<std::size_t>(rank)).events;
}

MetricsRegistry& Tracer::metrics(int rank) {
  return tracks_.at(static_cast<std::size_t>(rank)).metrics;
}

const MetricsRegistry& Tracer::metrics(int rank) const {
  return tracks_.at(static_cast<std::size_t>(rank)).metrics;
}

MetricsRegistry Tracer::merged_metrics() const {
  MetricsRegistry merged;
  for (const auto& t : tracks_) merged.merge(t.metrics);
  return merged;
}

void RankTracer::do_complete(std::string_view name, std::string_view cat,
                             double begin_s, double end_s, std::uint64_t bytes,
                             std::uint64_t n) const {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kComplete;
  ev.name = name;
  ev.cat = cat;
  ev.begin_s = begin_s;
  ev.end_s = end_s;
  ev.bytes = bytes;
  ev.n = n;
  tracer_->track(rank_).events.push_back(std::move(ev));
}

void RankTracer::do_complete_event(TraceEvent ev) const {
  ev.kind = TraceEvent::Kind::kComplete;
  tracer_->track(rank_).events.push_back(std::move(ev));
}

void RankTracer::do_instant(std::string_view name, std::string_view cat) const {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kInstant;
  ev.name = name;
  ev.cat = cat;
  ev.begin_s = now();
  tracer_->track(rank_).events.push_back(std::move(ev));
}

void RankTracer::do_counter(std::string_view name, double value) const {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kCounter;
  ev.name = name;
  ev.begin_s = now();
  ev.value = value;
  tracer_->track(rank_).events.push_back(std::move(ev));
}

void RankTracer::do_count(std::string_view name, std::uint64_t delta) const {
  tracer_->track(rank_).metrics.counter(std::string(name)).add(delta);
}

void RankTracer::do_observe(std::string_view name, double value) const {
  tracer_->track(rank_).metrics.histogram(std::string(name)).observe(value);
}

void RankTracer::do_gauge(std::string_view name, double value) const {
  tracer_->track(rank_).metrics.gauge(std::string(name)).set(value);
}

namespace {

/// One trace_event object; modeled seconds become trace microseconds
/// (Chrome's native unit).
Json event_json(const TraceEvent& ev, int rank) {
  const auto str = [](const char* v) { return Json::make_string(v); };
  const auto us = [](double s) { return Json::make_number(s * 1e6); };
  const bool counter = ev.kind == TraceEvent::Kind::kCounter;
  Json j = Json::make_object();
  j.set("name", Json::make_string(ev.name));
  if (!counter) j.set("cat", Json::make_string(ev.cat));
  switch (ev.kind) {
    case TraceEvent::Kind::kComplete: j.set("ph", str("X")); break;
    case TraceEvent::Kind::kInstant:
      j.set("ph", str("i"));
      j.set("s", str("t"));
      break;
    case TraceEvent::Kind::kCounter: j.set("ph", str("C")); break;
  }
  j.set("pid", Json::make_number(0));
  j.set("tid", Json::make_number(rank));
  j.set("ts", us(ev.begin_s));
  Json args = Json::make_object();
  if (counter) args.set("value", Json::make_number(ev.value));
  if (ev.kind == TraceEvent::Kind::kComplete) {
    j.set("dur", us(ev.end_s - ev.begin_s));
    const auto arg = [&args](const char* key, std::uint64_t v) {
      if (v != kNoArg) args.set(key, Json::make_uint(v));
    };
    arg("bytes", ev.bytes);
    arg("n", ev.n);
    if (ev.site != kNoArg) {
      // Site hashes render as hex to match the lockstep reports.
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(ev.site));
      args.set("site", str(hex));
    }
    arg("comm", ev.comm);
    arg("seq", ev.seq);
    arg("depth", ev.depth);
  }
  if (args.size() != 0) j.set("args", std::move(args));
  return j;
}

}  // namespace

std::string Tracer::chrome_json(
    const std::vector<std::pair<int, TraceEvent>>* extra) const {
  // Events are serialized one at a time into the literal frame, so the
  // document never exists as one Json tree.
  std::string out = "{\"traceEvents\":[";
  for (int r = 0; r < nranks(); ++r) {
    // Name the track so Perfetto shows "rank N" instead of a bare tid.
    Json meta = Json::make_object();
    meta.set("name", Json::make_string("thread_name"));
    meta.set("ph", Json::make_string("M"));
    meta.set("pid", Json::make_number(0));
    meta.set("tid", Json::make_number(r));
    Json meta_args = Json::make_object();
    meta_args.set("name", Json::make_string("rank " + std::to_string(r)));
    meta.set("args", std::move(meta_args));
    if (r != 0) out += ',';
    out += meta.dump();
    for (const auto& ev : tracks_[static_cast<std::size_t>(r)].events) {
      out += ',';
      out += event_json(ev, r).dump();
    }
    if (extra) {
      for (const auto& [rank, ev] : *extra) {
        if (rank != r) continue;
        out += ',';
        out += event_json(ev, r).dump();
      }
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace pdc::obs
