#pragma once

// Critical-path profile: bottleneck attribution and what-if headroom.
//
// build_profile() turns one recorded run (Tracer + final per-rank clocks)
// into the report the paper's bottleneck analysis needs:
//
//   * the exact critical path (obs/critpath.hpp), with every second of
//     parallel_time_s attributed to {compute, comm, io, idle} — the four
//     bucket totals close to the makespan within 1e-9;
//   * the same attribution broken down by enclosing phase span and by tree
//     depth (critical-path compute gaps are split at phase boundaries, so
//     the breakdowns close too);
//   * flamegraph-style span rollups: per span name, call count, total and
//     self time across all ranks, plus the time that name occupies on the
//     critical path;
//   * what-if projections from deterministic fixed-DAG replay: zero-cost
//     communication, infinitely fast disks, perfectly balanced local work.
//     headroom_x = t_baseline / t_whatif is the speedup an infinitely
//     better resource x could buy without changing the algorithm.
//
// Schema (pdc.profile.v1):
//   {
//     "schema": "pdc.profile.v1",
//     "nprocs": P, "parallel_time_s": T, "max_idle_s": ...,
//     "crit": {"compute_s":..,"comm_s":..,"io_s":..,"idle_s":..},
//     "by_phase": {"<phase>": {"compute_s":..,"comm_s":..,"io_s":..,
//                              "idle_s":..}, ...},
//     "by_depth": {"0": {...}, ..., "none": {...}},
//     "rollups": [{"name":..,"cat":..,"count":..,"total_s":..,
//                  "self_s":..,"crit_s":..}, ...],
//     "whatif": {"t_baseline_s":..,"t_comm_free_s":..,"t_io_free_s":..,
//                "t_balanced_s":..,"headroom_comm":..,"headroom_io":..,
//                "headroom_balance":..},
//     "segments": [{"rank":..,"begin_s":..,"end_s":..,"bucket":"comm",
//                   "op":"all_reduce"}, ...]
//   }
//
// overlay_events() renders the path as crit.* spans on a separate overlay
// so Tracer::chrome_json can draw it on top of the recorded tracks.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mp/clock.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace pdc::obs {

struct Profile {
  /// One attribution row: critical-path seconds by bucket.
  struct Slice {
    double compute_s = 0.0;
    double comm_s = 0.0;
    double io_s = 0.0;
    double idle_s = 0.0;
    double total() const { return compute_s + comm_s + io_s + idle_s; }
  };

  /// Flamegraph-style rollup of one span name across all ranks.
  struct Rollup {
    std::string name;
    std::string cat;
    std::uint64_t count = 0;
    double total_s = 0.0;  ///< sum of span durations
    double self_s = 0.0;   ///< total_s minus directly nested spans
    double crit_s = 0.0;   ///< critical-path seconds attributed to name
  };

  int nprocs = 0;
  double parallel_time_s = 0.0;
  double max_idle_s = 0.0;  ///< slowest single rank's idle total

  Slice crit;  ///< whole-path attribution; total() == parallel_time_s
  /// Attribution by innermost enclosing phase span ("" = outside any
  /// phase), sorted by descending slice total.
  std::vector<std::pair<std::string, Slice>> by_phase;
  /// Attribution by tree depth of the innermost depth-stamped span
  /// (numeric keys ascending, then "none" for path time outside the tree).
  std::vector<std::pair<std::string, Slice>> by_depth;
  /// Sorted by descending crit_s, then descending total_s, then name.
  std::vector<Rollup> rollups;

  // What-if projections (fixed-DAG replay; see obs/critpath.hpp).
  double t_baseline_s = 0.0;   ///< replay at scale 1 (== parallel_time_s)
  double t_comm_free_s = 0.0;  ///< comm cost x0, same sync structure
  double t_io_free_s = 0.0;    ///< disk cost x0
  double t_balanced_s = 0.0;   ///< local work redistributed evenly
  double headroom_comm = 1.0;  ///< t_baseline_s / t_comm_free_s
  double headroom_io = 1.0;    ///< t_baseline_s / t_io_free_s
  double headroom_balance = 1.0;  ///< t_baseline_s / t_balanced_s

  /// The path itself, ordered backwards in time (see CritGraph).
  std::vector<CritSegment> segments;

  Json to_json() const;
};

/// Builds the full profile from a recorded run.  Pure observer: reads the
/// tracer and clocks, never mutates either.
Profile build_profile(const Tracer& tracer,
                      const std::vector<mp::ClockSnapshot>& clocks);

/// The critical path rendered as overlay spans (name crit.compute /
/// crit.comm / crit.io / crit.idle, cat "critpath") for
/// Tracer::chrome_json's `extra` parameter.
std::vector<std::pair<int, TraceEvent>> overlay_events(const Profile& p);

/// Human-readable bottleneck summary (the `--profile` CLI prints this).
std::string format_profile_summary(const Profile& p);

}  // namespace pdc::obs
