#pragma once

// Per-rank span/event recorder keyed to the MODELED timeline.
//
// Every rank of an SPMD run is one track.  Instrumented code opens spans —
// sample draw, SSE histogram build, combiner exchange, gini evaluation,
// alive re-evaluation, partition pass, small-node queue drain, each
// collective primitive, each disk request — whose begin/end timestamps are
// read from the rank's modeled Clock, so the exported trace shows the run
// exactly as the cost model scheduled it: where compute, communication,
// I/O and idle time went, on which rank, and why.  Export is Chrome
// trace_event JSON (complete "X", counter "C" and metadata "M" events),
// loadable in Perfetto or chrome://tracing; modeled seconds map to trace
// microseconds.
//
// Zero-cost when disabled: RankTracer is a nullable view.  With no backing
// Tracer every call is an inlined branch-and-return and SpanGuard records
// nothing — the same pattern as the null-clock CostHooks.  Instrumentation
// never mutates the Clock, so a traced run and an untraced run produce
// bit-identical modeled costs and trees.
//
// Threading: Tracer preallocates one track (events + metrics) per rank;
// each rank thread writes only its own track, so no locking is needed —
// the same confinement discipline as the runtime's Clock vector.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mp/clock.hpp"
#include "obs/metrics.hpp"

namespace pdc::obs {

/// Sentinel for "argument not set" on optional u64 trace args.
inline constexpr std::uint64_t kNoArg = ~std::uint64_t{0};

struct TraceEvent {
  enum class Kind : std::uint8_t { kComplete, kInstant, kCounter };

  Kind kind = Kind::kComplete;
  std::string name;
  std::string cat;
  double begin_s = 0.0;          ///< modeled seconds
  double end_s = 0.0;            ///< kComplete only
  std::uint64_t bytes = kNoArg;  ///< optional "bytes" arg
  std::uint64_t n = kNoArg;      ///< optional "n" arg (records, tasks, ...)
  double value = 0.0;            ///< kCounter only

  // Synchronization identity (obs/critpath.hpp): collectives carry the
  // lockstep site hash, their communicator id and per-communicator
  // sequence number.  Grouping spans across tracks by (comm, seq)
  // recovers every cross-rank dependency edge of the run offline.
  std::uint64_t site = kNoArg;  ///< collective call-site hash
  std::uint64_t comm = kNoArg;  ///< communicator id
  std::uint64_t seq = kNoArg;   ///< collective sequence on `comm`
  std::uint64_t depth = kNoArg; ///< tree depth of the enclosing task
};

class Tracer;

/// The nullable per-rank handle instrumented code holds (by value).
class RankTracer {
 public:
  RankTracer() = default;
  RankTracer(Tracer* tracer, int rank, const mp::Clock* clock)
      : tracer_(tracer), rank_(rank), clock_(clock) {}

  bool enabled() const { return tracer_ != nullptr; }
  int rank() const { return rank_; }

  /// This rank's position on the modeled timeline.
  double now() const { return clock_ ? clock_->total() : 0.0; }

  /// Records a completed span [begin_s, end_s].
  void complete(std::string_view name, std::string_view cat, double begin_s,
                double end_s, std::uint64_t bytes = kNoArg,
                std::uint64_t n = kNoArg) const {
    if (tracer_) do_complete(name, cat, begin_s, end_s, bytes, n);
  }

  /// Records a fully-populated complete event (kind is forced).  Used by
  /// SpanGuard so spans can carry the synchronization-identity args.
  void complete_event(TraceEvent ev) const {
    if (tracer_) do_complete_event(std::move(ev));
  }

  /// Records a zero-duration marker at now().
  void instant(std::string_view name, std::string_view cat) const {
    if (tracer_) do_instant(name, cat);
  }

  /// Records a counter sample at now() ("C" event: value over time).
  void counter(std::string_view name, double value) const {
    if (tracer_) do_counter(name, value);
  }

  // Metrics shorthands on this rank's registry (no-ops when disabled).
  void count(std::string_view name, std::uint64_t delta = 1) const {
    if (tracer_) do_count(name, delta);
  }
  void observe(std::string_view name, double value) const {
    if (tracer_) do_observe(name, value);
  }
  void gauge(std::string_view name, double value) const {
    if (tracer_) do_gauge(name, value);
  }

 private:
  void do_complete(std::string_view name, std::string_view cat, double begin_s,
                   double end_s, std::uint64_t bytes, std::uint64_t n) const;
  void do_complete_event(TraceEvent ev) const;
  void do_instant(std::string_view name, std::string_view cat) const;
  void do_counter(std::string_view name, double value) const;
  void do_count(std::string_view name, std::uint64_t delta) const;
  void do_observe(std::string_view name, double value) const;
  void do_gauge(std::string_view name, double value) const;

  Tracer* tracer_ = nullptr;
  int rank_ = 0;
  const mp::Clock* clock_ = nullptr;
};

/// RAII span: opens at construction (begin = rank's modeled now), records a
/// complete event when closed or destroyed.  Safe to use unconditionally —
/// a guard over a disabled RankTracer does nothing.
class SpanGuard {
 public:
  SpanGuard() = default;
  SpanGuard(RankTracer tracer, std::string_view name, std::string_view cat,
            std::uint64_t bytes = kNoArg, std::uint64_t n = kNoArg)
      : tracer_(tracer) {
    if (tracer_.enabled()) {
      live_ = true;
      ev_.name = name;
      ev_.cat = cat;
      ev_.bytes = bytes;
      ev_.n = n;
      ev_.begin_s = tracer_.now();
    }
  }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  SpanGuard(SpanGuard&& o) noexcept { *this = std::move(o); }
  SpanGuard& operator=(SpanGuard&& o) noexcept {
    if (this != &o) {
      close();
      tracer_ = o.tracer_;
      live_ = std::exchange(o.live_, false);
      ev_ = std::move(o.ev_);
    }
    return *this;
  }

  ~SpanGuard() { close(); }

  /// Attach args discovered mid-span (e.g. bytes known only after
  /// serialization).
  void set_bytes(std::uint64_t bytes) { ev_.bytes = bytes; }
  void set_n(std::uint64_t n) { ev_.n = n; }
  void set_depth(std::uint64_t depth) { ev_.depth = depth; }

  /// Stamp the synchronization identity of a collective span (lockstep
  /// site hash, communicator id, per-communicator sequence number) so
  /// obs/critpath.hpp can align the same collective across rank tracks.
  void set_sync(std::uint64_t site, std::uint64_t comm, std::uint64_t seq) {
    ev_.site = site;
    ev_.comm = comm;
    ev_.seq = seq;
  }

  void close() {
    if (live_) {
      live_ = false;
      ev_.end_s = tracer_.now();
      tracer_.complete_event(std::move(ev_));
    }
  }

 private:
  RankTracer tracer_;
  bool live_ = false;
  TraceEvent ev_;
};

/// Whole-run collector: one track of events + one metrics registry per
/// rank.  Construct before Runtime::run, pass to it, export afterwards.
class Tracer {
 public:
  explicit Tracer(int nranks);

  int nranks() const { return static_cast<int>(tracks_.size()); }

  /// The per-rank handle; `clock` supplies the modeled timestamps.
  RankTracer rank(int r, const mp::Clock* clock) {
    return RankTracer(this, r, clock);
  }

  const std::vector<TraceEvent>& events(int rank) const;
  MetricsRegistry& metrics(int rank);
  const MetricsRegistry& metrics(int rank) const;

  /// All ranks' registries folded into one (counters add, gauges max,
  /// histograms merge).
  MetricsRegistry merged_metrics() const;

  /// Chrome trace_event JSON: {"traceEvents":[...]} with one thread
  /// (tid = rank) per track and a thread_name metadata event per rank.
  /// `extra` merges additional per-rank events into the document (the
  /// critical-path overlay from obs/profile.hpp); the recorded tracks are
  /// never mutated.
  std::string chrome_json(
      const std::vector<std::pair<int, TraceEvent>>* extra = nullptr) const;

 private:
  friend class RankTracer;

  struct Track {
    std::vector<TraceEvent> events;
    MetricsRegistry metrics;
  };

  Track& track(int rank);

  std::vector<Track> tracks_;
};

}  // namespace pdc::obs
