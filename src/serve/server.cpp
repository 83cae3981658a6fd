#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/span_names.hpp"

namespace pdc::serve {

double wall_seconds() {
  using WallClock = std::chrono::steady_clock;  // pdc-lint: allow(PDC001) -- serving latency and load-generator throughput are wall time, outside the modeled timeline
  return std::chrono::duration<double>(WallClock::now().time_since_epoch())
      .count();
}

namespace {

std::size_t latency_bucket(double us) {
  std::size_t b = 0;
  double le = 1.0;
  while (b + 1 < kLatencyBuckets && us > le) {
    le *= 2.0;
    ++b;
  }
  return b;
}

}  // namespace

Server::Server(CompiledTree model, ServerConfig cfg) : cfg_(cfg) {
  if (cfg_.replicas < 1) {
    throw std::runtime_error("Server: replicas must be >= 1");
  }
  if (cfg_.queue_capacity < 1) {
    throw std::runtime_error("Server: queue_capacity must be >= 1");
  }
  if (cfg_.tracer && cfg_.tracer->nranks() < cfg_.replicas) {
    throw std::runtime_error("Server: tracer has fewer tracks than replicas");
  }
  auto first = std::make_shared<const VersionedModel>(
      VersionedModel{std::move(model), 0});
  replicas_.reserve(static_cast<std::size_t>(cfg_.replicas));
  for (int r = 0; r < cfg_.replicas; ++r) {
    auto rep = std::make_unique<Replica>();
    rep->model = first;
    replicas_.push_back(std::move(rep));
  }
  clocks_.resize(replicas_.size());
  last_version_.assign(replicas_.size(), 0);
  replica_started_.assign(replicas_.size(), false);
  stats_.replicas.resize(replicas_.size());
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    stats_.replicas[r].replica = static_cast<int>(r);
  }
  workers_.reserve(replicas_.size());
  for (int r = 0; r < cfg_.replicas; ++r) {
    workers_.emplace_back([this, r] { worker_loop(r); });
  }
}

Server::~Server() { shutdown(); }

std::future<BatchResult> Server::submit(RecordBlock block) {
  Request req;
  req.block = std::move(block);
  req.enqueue_wall_s = wall_seconds();
  std::future<BatchResult> fut = req.promise.get_future();
  {
    LockGuard lk(queue_mu_);
    while (!stop_ && queue_.size() >= cfg_.queue_capacity) {
      queue_space_.wait(lk);
    }
    if (stop_) {
      throw std::runtime_error("Server: submit after shutdown");
    }
    queue_.push_back(std::move(req));
    const std::uint64_t depth = queue_.size();
    {
      LockGuard slk(stats_mu_);
      stats_.queue_highwater = std::max(stats_.queue_highwater, depth);
    }
  }
  queue_nonempty_.notify_one();
  return fut;
}

std::uint64_t Server::hot_swap(CompiledTree model) {
  LockGuard swap_lk(swap_mu_);
  const std::uint64_t v = ++published_version_;
  auto next = std::make_shared<const VersionedModel>(
      VersionedModel{std::move(model), v});
  for (auto& rep : replicas_) {
    LockGuard lk(rep->model_mu);
    rep->model = next;
  }
  {
    LockGuard slk(stats_mu_);
    ++stats_.swaps;
  }
  return v;
}

std::uint64_t Server::version() const {
  LockGuard lk(swap_mu_);
  return published_version_;
}

void Server::shutdown() {
  {
    LockGuard lk(queue_mu_);
    if (stop_ && workers_.empty()) return;
    stop_ = true;
  }
  queue_nonempty_.notify_all();
  queue_space_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

ServerStats Server::stats() const {
  LockGuard lk(stats_mu_);
  return stats_;
}

void Server::worker_loop(int r) {
  const std::size_t ri = static_cast<std::size_t>(r);
  Replica& rep = *replicas_[ri];
  obs::RankTracer tracer;
  if (cfg_.tracer) {
    tracer = cfg_.tracer->rank(r, &clocks_[ri]);
  }
  for (;;) {
    Request req;
    {
      LockGuard lk(queue_mu_);
      while (!stop_ && queue_.empty()) {
        queue_nonempty_.wait(lk);
      }
      if (queue_.empty()) return;  // stop_ set and fully drained
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_space_.notify_one();

    std::shared_ptr<const VersionedModel> m;
    {
      LockGuard lk(rep.model_mu);
      m = rep.model;
    }

    const double begin_s = wall_seconds();
    const double begin_modeled = clocks_[ri].total();
    BatchResult res;
    res.labels.resize(req.block.size());
    m->tree.predict_block(req.block, res.labels);
    res.model_version = m->version;
    res.replica = r;
    const double end_s = wall_seconds();
    res.latency_us = (end_s - req.enqueue_wall_s) * 1e6;

    // The replica's modeled clock advances by the measured service time,
    // so the optional trace shows real batch durations on its track.
    clocks_[ri].add_compute(std::max(0.0, end_s - begin_s));

    bool swapped = false;
    {
      LockGuard lk(stats_mu_);
      ReplicaStats& rs = stats_.replicas[ri];
      if (!replica_started_[ri]) {
        replica_started_[ri] = true;
        rs.min_version = rs.max_version = res.model_version;
      } else {
        if (res.model_version < last_version_[ri]) {
          rs.version_monotonic = false;
        }
        if (res.model_version != last_version_[ri]) {
          ++rs.swaps_observed;
          swapped = true;
        }
        rs.min_version = std::min(rs.min_version, res.model_version);
        rs.max_version = std::max(rs.max_version, res.model_version);
      }
      last_version_[ri] = res.model_version;
      ++rs.batches;
      rs.records += req.block.size();
      ++stats_.requests;
      stats_.records += req.block.size();
      stats_.latency_us.observe(res.latency_us);
      ++stats_.latency_log2_us[latency_bucket(res.latency_us)];
    }

    if (tracer.enabled()) {
      if (swapped) {
        tracer.instant(obs::span_names::kServeSwap, "serve");
      }
      tracer.complete(obs::span_names::kServeBatch, "serve", begin_modeled,
                      clocks_[ri].total(), obs::kNoArg, req.block.size());
      tracer.count("serve.batches");
      tracer.count("serve.records", req.block.size());
      tracer.observe("serve.batch_latency_us", res.latency_us);
    }

    req.promise.set_value(std::move(res));
  }
}

}  // namespace pdc::serve
