#include "serve/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "data/agrawal.hpp"

namespace pdc::serve {

namespace {

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

obs::Json num(double v) { return obs::Json::make_number(v); }
obs::Json unum(std::uint64_t v) { return obs::Json::make_uint(v); }

}  // namespace

ServeReport run_loadgen(Server& server, const CompiledTree& model,
                        const LoadGenConfig& cfg) {
  data::AgrawalGenerator gen({cfg.function, cfg.seed, 0.0, 0.0});

  ServeReport rep;
  rep.config = cfg;
  rep.replicas = server.replicas();
  rep.model_nodes = model.node_count();
  rep.model_depth = model.depth();
  rep.model_leaves = model.leaf_count();

  std::vector<double> latencies;
  // pdc: incore(one latency sample per request; bounded by cfg.requests, not by the record stream)
  latencies.reserve(cfg.requests);

  std::deque<std::future<BatchResult>> outstanding;
  std::uint64_t next_record = 0;
  std::uint64_t completed = 0;
  const std::size_t window = std::max<std::size_t>(1, cfg.window);

  const auto drain_one = [&] {
    BatchResult res = outstanding.front().get();
    outstanding.pop_front();
    latencies.push_back(res.latency_us);
    ++completed;
    if (cfg.swap_every != 0 && completed % cfg.swap_every == 0) {
      server.hot_swap(model);  // republish: same behaviour, new version
    }
  };

  // Request payloads are pre-generated into a pool before the clock
  // starts: a load generator that synthesizes records on the submit path
  // becomes the bottleneck long before a multi-replica server does, and
  // the throughput figure would measure the generator, not the server.
  constexpr std::size_t kPoolSize = 32;
  std::vector<RecordBlock> pool;
  // pdc: incore(bounded request-payload pool: at most 32 batches, reused cyclically)
  pool.reserve(std::min<std::size_t>(kPoolSize, cfg.requests));
  for (std::size_t i = 0; i < pool.capacity(); ++i) {
    const auto records =
        gen.make_range(next_record, next_record + cfg.batch_records);
    next_record += cfg.batch_records;
    pool.push_back(RecordBlock::from_records(records));
  }

  const double begin_s = wall_seconds();
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    outstanding.push_back(server.submit(pool[i % pool.size()]));
    while (outstanding.size() >= window) drain_one();
  }
  while (!outstanding.empty()) drain_one();
  rep.wall_s = wall_seconds() - begin_s;

  const ServerStats stats = server.stats();
  rep.total_requests = stats.requests;
  rep.total_records = stats.records;
  rep.records_per_s =
      rep.wall_s > 0.0 ? static_cast<double>(rep.total_records) / rep.wall_s
                       : 0.0;
  rep.swaps = stats.swaps;
  rep.queue_highwater = stats.queue_highwater;
  rep.latency_us = stats.latency_us;
  rep.latency_log2_us = stats.latency_log2_us;
  rep.replica_stats = stats.replicas;

  std::sort(latencies.begin(), latencies.end());
  rep.p50_us = percentile(latencies, 0.50);
  rep.p90_us = percentile(latencies, 0.90);
  rep.p99_us = percentile(latencies, 0.99);
  return rep;
}

obs::Json ServeReport::to_json() const {
  obs::Json doc = obs::Json::make_object();
  doc.set("schema", obs::Json::make_string("pdc.serve_report.v1"));

  obs::Json jcfg = obs::Json::make_object();
  jcfg.set("replicas", num(replicas));
  jcfg.set("batch_records", unum(config.batch_records));
  jcfg.set("requests", unum(config.requests));
  jcfg.set("window", unum(config.window));
  jcfg.set("seed", unum(config.seed));
  jcfg.set("function", num(config.function));
  jcfg.set("swap_every", unum(config.swap_every));
  doc.set("config", std::move(jcfg));

  obs::Json jmodel = obs::Json::make_object();
  jmodel.set("nodes", unum(model_nodes));
  jmodel.set("depth", num(model_depth));
  jmodel.set("leaves", unum(model_leaves));
  doc.set("model", std::move(jmodel));

  obs::Json jtot = obs::Json::make_object();
  jtot.set("requests", unum(total_requests));
  jtot.set("records", unum(total_records));
  jtot.set("wall_s", num(wall_s));
  jtot.set("records_per_s", num(records_per_s));
  jtot.set("swaps", unum(swaps));
  jtot.set("queue_highwater", unum(queue_highwater));
  doc.set("totals", std::move(jtot));

  obs::Json jlat = obs::Json::make_object();
  jlat.set("count", unum(latency_us.count));
  jlat.set("mean_us", num(latency_us.mean()));
  jlat.set("min_us", num(latency_us.count ? latency_us.min : 0.0));
  jlat.set("max_us", num(latency_us.count ? latency_us.max : 0.0));
  jlat.set("p50_us", num(p50_us));
  jlat.set("p90_us", num(p90_us));
  jlat.set("p99_us", num(p99_us));
  obs::Json jbuckets = obs::Json::make_array();
  for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
    obs::Json jb = obs::Json::make_object();
    // The final bucket is unbounded; -1 marks "no upper edge".
    const double le =
        b + 1 < kLatencyBuckets ? std::ldexp(1.0, static_cast<int>(b)) : -1.0;
    jb.set("le_us", num(le));
    jb.set("count", unum(latency_log2_us[b]));
    jbuckets.push_back(std::move(jb));
  }
  jlat.set("buckets", std::move(jbuckets));
  doc.set("latency_us", std::move(jlat));

  obs::Json jreps = obs::Json::make_array();
  for (const ReplicaStats& rs : replica_stats) {
    obs::Json jr = obs::Json::make_object();
    jr.set("replica", num(rs.replica));
    jr.set("batches", unum(rs.batches));
    jr.set("records", unum(rs.records));
    jr.set("min_version", unum(rs.min_version));
    jr.set("max_version", unum(rs.max_version));
    jr.set("swaps_observed", unum(rs.swaps_observed));
    jr.set("version_monotonic", obs::Json::make_bool(rs.version_monotonic));
    jreps.push_back(std::move(jr));
  }
  doc.set("replicas", std::move(jreps));
  return doc;
}

}  // namespace pdc::serve
