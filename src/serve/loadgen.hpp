#pragma once

// Closed-loop seeded load generator + the `pdc.serve_report.v1` artifact.
//
// The generator keeps a fixed window of outstanding batches against a
// Server (closed loop: a new request is admitted only when an old one
// completes, so offered load adapts to service rate instead of queueing
// unboundedly), synthesizes every record deterministically from the
// Agrawal stream (seed + running index — two runs with the same config
// score identical records), optionally republishes the model every
// `swap_every` completions to exercise hot-swap under load, and folds the
// exact per-batch latencies plus the server's own counters into a
// structured report.
//
// Concurrency: the generator itself is single-threaded and owns no shared
// mutable state -- all cross-thread traffic goes through Server's
// annotated capability surface (submit()/hot_swap()/stats()) and the
// std::future handshake, so there is nothing here for the thread-safety
// analysis to guard.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/json.hpp"
#include "serve/compiled_tree.hpp"
#include "serve/server.hpp"

namespace pdc::serve {

struct LoadGenConfig {
  std::size_t requests = 64;       ///< total batches to push
  std::size_t batch_records = 512; ///< records per batch
  std::size_t window = 8;          ///< outstanding batches (closed loop)
  std::uint64_t seed = 1;          ///< Agrawal stream seed
  int function = 2;                ///< Agrawal classification function
  /// Republish the model after every N completed requests (0 = never);
  /// each republish bumps the served version.
  std::size_t swap_every = 0;
};

/// Everything `pdc.serve_report.v1` carries; to_json() is the artifact.
struct ServeReport {
  LoadGenConfig config;
  int replicas = 0;

  std::size_t model_nodes = 0;
  std::int32_t model_depth = 0;
  std::size_t model_leaves = 0;

  std::uint64_t total_requests = 0;
  std::uint64_t total_records = 0;
  double wall_s = 0.0;
  double records_per_s = 0.0;
  std::uint64_t swaps = 0;
  std::uint64_t queue_highwater = 0;

  obs::HistogramSummary latency_us;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  std::array<std::uint64_t, kLatencyBuckets> latency_log2_us{};

  std::vector<ReplicaStats> replica_stats;

  /// The `pdc.serve_report.v1` JSON document.
  obs::Json to_json() const;
};

/// Drives `cfg.requests` batches through `server` and reports.  `model` is
/// the compiled model the server was built with (echoed into the report
/// and republished on swap_every).
ServeReport run_loadgen(Server& server, const CompiledTree& model,
                        const LoadGenConfig& cfg);

}  // namespace pdc::serve
