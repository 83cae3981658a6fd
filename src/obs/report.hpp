#pragma once

// End-of-run structured report: one machine-readable JSON document merging
// the quantities the paper's evaluation is built from — per-rank modeled
// ClockSnapshots (compute/comm/I/O/idle), per-disk IoStats, tree shape and
// accuracy, and the aggregated metric registry — so every experiment point
// can be archived, diffed and plotted without scraping stdout.
//
// Schema (pdc.run_report.v1):
//   {
//     "schema": "pdc.run_report.v1",
//     "classifier": "...", "nprocs": P, "records": N,
//     "parallel_time_s": ..., "balance": ...,
//     "ranks": [{"rank":0,"compute_s":..,"comm_s":..,"io_s":..,
//                "io_hidden_s":..,"idle_s":..,
//                "total_s":..,"read_ops":..,"write_ops":..,
//                "bytes_read":..,"bytes_written":..}, ...],
//     "tree": {"nodes":..,"leaves":..,"depth":..},
//     "lockstep_divergence": [      // present only when the collective
//       {"rank":..,"global_rank":..,//  lockstep auditor aborted the run
//        "site":"hex","seq":..,"prim":"...","where":"file:line"}, ...],
//     "accuracy": ...,              // present only when evaluated
//     "metrics": {"counters":{...},"gauges":{...},
//                 "histograms":{"name":{"count","sum","min","max","mean"}}}
//   }
//
// to_json/from_json round-trip exactly (doubles via %.17g).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "io/iostats.hpp"
#include "mp/clock.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace pdc::obs {

struct RunReport {
  struct Rank {
    mp::ClockSnapshot clock;
    io::IoStats io;
  };

  struct TreeShape {
    std::uint64_t nodes = 0;
    std::uint64_t leaves = 0;
    std::int32_t depth = 0;
  };

  /// One rank's row of a collective-lockstep divergence report (see
  /// mp/lockstep.hpp; plain strings here so obs stays below mp in the
  /// dependency order).  Empty = the run held lockstep; the field is then
  /// omitted from the JSON document.
  struct LockstepRank {
    int rank = 0;
    int global_rank = 0;
    std::uint64_t site = 0;
    std::uint64_t seq = 0;
    std::string prim;
    std::string where;
  };

  std::string classifier;
  int nprocs = 0;
  std::uint64_t records = 0;
  std::vector<Rank> ranks;
  TreeShape tree;
  std::vector<LockstepRank> lockstep_divergence;
  double accuracy = -1.0;  ///< < 0: not evaluated (omitted from JSON)
  MetricsRegistry metrics;

  /// Slowest rank's modeled timeline position (matches SpmdReport).
  double parallel_time_s() const;
  /// Mean busy / max busy over ranks, busy = compute + comm + io.
  double balance() const;

  Json to_json() const;
  static RunReport from_json(std::string_view text);
};

}  // namespace pdc::obs
