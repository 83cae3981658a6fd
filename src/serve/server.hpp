#pragma once

// pdc::serve prediction server: admission queue + batching + N sharded
// replicas of a compiled model + atomic hot-swap on retrain.
//
// Requests are whole RecordBlocks (the caller batches; the CLI and load
// generator slice their streams into --batch sized blocks).  A bounded
// admission queue applies backpressure to closed-loop clients: submit()
// blocks while the queue is at capacity, so an overloaded server slows its
// callers instead of buffering without bound.  Each of the N worker
// threads is one replica — it owns a published pointer to an immutable
// (CompiledTree, version) pair, copies that pointer once per batch, and
// scores the whole batch against that copy.  hot_swap() publishes a new
// model under each replica's pointer lock with a strictly increasing
// version number; in-flight batches finish on the model they started with,
// so every response is scored by exactly one model — old or new, never a
// mix — and the versions a replica serves only move forward.
//
// Shutdown drains: workers keep pulling until the queue is empty AND stop
// was requested, so every accepted request gets a response before join.
//
// Time: serving latency is real wall time by nature (this layer sits
// outside the modeled SPMD timeline), so it is measured once in
// wall_seconds() and fed to the stats and, when a Tracer is attached, to
// per-replica tracks whose modeled clocks advance by the measured service
// time — the serve timeline renders in the same Chrome trace viewer as
// training runs.

#include <array>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <thread>  // pdc-lint: allow(PDC004) -- serve worker pool; replicas are threads by design, not SPMD ranks
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "mp/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/compiled_tree.hpp"
#include "serve/record_block.hpp"

namespace pdc::serve {

/// Monotonic wall-clock seconds: the one place serving (the server and its
/// load generator) reads the wall.
double wall_seconds();

struct ServerConfig {
  int replicas = 1;
  std::size_t queue_capacity = 64;
  /// Optional trace sink: one track per replica (needs nranks() >=
  /// replicas).  Workers write only their own track, preserving the
  /// Tracer's thread-confinement contract.
  obs::Tracer* tracer = nullptr;
};

/// One scored batch.  `model_version` is the version of the compiled model
/// every label in this response was scored by (never a mix).
struct BatchResult {
  std::vector<std::int8_t> labels;
  std::uint64_t model_version = 0;
  int replica = 0;
  double latency_us = 0.0;  ///< admission -> completion, wall time
};

struct ReplicaStats {
  int replica = 0;
  std::uint64_t batches = 0;
  std::uint64_t records = 0;
  std::uint64_t min_version = 0;
  std::uint64_t max_version = 0;
  /// Number of times this replica observed the published version change
  /// between consecutive batches.
  std::uint64_t swaps_observed = 0;
  /// False if this replica ever served a version older than one it had
  /// already served (must stay true; asserted under TSan).
  bool version_monotonic = true;
};

/// log2-microsecond latency buckets: bucket i counts responses with
/// latency <= 2^i us; the last bucket is unbounded.
inline constexpr std::size_t kLatencyBuckets = 28;

struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t records = 0;
  std::uint64_t swaps = 0;
  std::uint64_t queue_highwater = 0;
  obs::HistogramSummary latency_us;
  std::array<std::uint64_t, kLatencyBuckets> latency_log2_us{};
  std::vector<ReplicaStats> replicas;
};

class Server {
 public:
  explicit Server(CompiledTree model, ServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues a batch; blocks while the queue is full (backpressure).
  /// Throws std::runtime_error after shutdown() has been requested.
  std::future<BatchResult> submit(RecordBlock block);

  /// Publishes `model` to every replica under its pointer lock and returns
  /// the new (strictly increasing) version.  In-flight batches finish on
  /// the model they started with.
  std::uint64_t hot_swap(CompiledTree model);

  /// The most recently published version (the initial model is version 0).
  std::uint64_t version() const;

  /// Stops admission, drains the queue, joins the workers.  Idempotent;
  /// also run by the destructor.
  void shutdown();

  ServerStats stats() const;

  int replicas() const { return static_cast<int>(replicas_.size()); }

 private:
  struct VersionedModel {
    CompiledTree tree;
    std::uint64_t version = 0;
  };

  struct Request {
    RecordBlock block;
    std::promise<BatchResult> promise;
    double enqueue_wall_s = 0.0;
  };

  struct Replica {
    Mutex model_mu;
    std::shared_ptr<const VersionedModel> model PDC_GUARDED_BY(model_mu);
  };

  void worker_loop(int r);

  // pdc: unshared(set in the constructor before the workers start and
  // immutable thereafter; workers only read it)
  ServerConfig cfg_;
  // pdc: unshared(the vector is filled in the constructor before the
  // workers start and never resized; the Replica elements it points to
  // carry their own model_mu capability)
  std::vector<std::unique_ptr<Replica>> replicas_;
  // pdc: unshared(per-replica modeled clocks for the optional trace
  // tracks; each slot is touched only by its replica's worker thread)
  std::vector<mp::Clock> clocks_;

  mutable Mutex queue_mu_;
  CondVar queue_nonempty_;
  CondVar queue_space_;
  std::deque<Request> queue_ PDC_GUARDED_BY(queue_mu_);
  bool stop_ PDC_GUARDED_BY(queue_mu_) = false;

  mutable Mutex swap_mu_;
  std::uint64_t published_version_ PDC_GUARDED_BY(swap_mu_) = 0;

  mutable Mutex stats_mu_;
  ServerStats stats_ PDC_GUARDED_BY(stats_mu_);
  std::vector<std::uint64_t> last_version_ PDC_GUARDED_BY(stats_mu_);
  std::vector<bool> replica_started_ PDC_GUARDED_BY(stats_mu_);

  // pdc: unshared(owned by the control plane: filled in the constructor,
  // joined and cleared in shutdown; the workers never touch their own
  // handles)
  std::vector<std::thread> workers_;  // pdc-lint: allow(PDC004) -- serve worker pool; replicas are threads by design, not SPMD ranks
};

}  // namespace pdc::serve
