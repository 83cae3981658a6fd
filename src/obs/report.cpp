#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace pdc::obs {

double RunReport::parallel_time_s() const {
  double t = 0.0;
  for (const auto& r : ranks) t = std::max(t, r.clock.total());
  return t;
}

double RunReport::balance() const {
  if (ranks.empty()) return 1.0;
  double max_busy = 0.0;
  double sum_busy = 0.0;
  for (const auto& r : ranks) {
    const double busy = r.clock.compute_s + r.clock.comm_s + r.clock.io_s;
    max_busy = std::max(max_busy, busy);
    sum_busy += busy;
  }
  if (max_busy == 0.0) return 1.0;
  return sum_busy / (static_cast<double>(ranks.size()) * max_busy);
}

Json RunReport::to_json() const {
  const auto num = [](double v) { return Json::make_number(v); };
  const auto exact = [](std::uint64_t v) { return Json::make_uint(v); };
  Json doc = Json::make_object();
  doc.set("schema", Json::make_string("pdc.run_report.v1"));
  doc.set("classifier", Json::make_string(classifier));
  doc.set("nprocs", num(nprocs));
  doc.set("records", exact(records));
  doc.set("parallel_time_s", num(parallel_time_s()));
  doc.set("balance", num(balance()));
  Json jranks = Json::make_array();
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const auto& rk = ranks[r];
    Json jr = Json::make_object();
    jr.set("rank", exact(r));
    jr.set("compute_s", num(rk.clock.compute_s));
    jr.set("comm_s", num(rk.clock.comm_s));
    jr.set("io_s", num(rk.clock.io_s));
    jr.set("io_hidden_s", num(rk.clock.io_hidden_s));
    jr.set("idle_s", num(rk.clock.idle_s));
    jr.set("total_s", num(rk.clock.total()));
    jr.set("read_ops", exact(rk.io.read_ops));
    jr.set("write_ops", exact(rk.io.write_ops));
    jr.set("bytes_read", exact(rk.io.bytes_read));
    jr.set("bytes_written", exact(rk.io.bytes_written));
    jranks.push_back(std::move(jr));
  }
  doc.set("ranks", std::move(jranks));
  Json jtree = Json::make_object();
  jtree.set("nodes", exact(tree.nodes));
  jtree.set("leaves", exact(tree.leaves));
  jtree.set("depth", num(tree.depth));
  doc.set("tree", std::move(jtree));
  if (!lockstep_divergence.empty()) {
    Json jlock = Json::make_array();
    for (const auto& e : lockstep_divergence) {
      char site_hex[17];
      std::snprintf(site_hex, sizeof(site_hex), "%016llx",
                    static_cast<unsigned long long>(e.site));
      Json je = Json::make_object();
      je.set("rank", num(e.rank));
      je.set("global_rank", num(e.global_rank));
      je.set("site", Json::make_string(site_hex));
      je.set("seq", exact(e.seq));
      je.set("prim", Json::make_string(e.prim));
      je.set("where", Json::make_string(e.where));
      jlock.push_back(std::move(je));
    }
    doc.set("lockstep_divergence", std::move(jlock));
  }
  if (accuracy >= 0.0) doc.set("accuracy", num(accuracy));
  Json counters = Json::make_object();
  for (const auto& [name, c] : metrics.counters()) {
    counters.set(name, exact(c.value));
  }
  Json gauges = Json::make_object();
  for (const auto& [name, g] : metrics.gauges()) gauges.set(name, num(g.value));
  Json histograms = Json::make_object();
  for (const auto& [name, h] : metrics.histograms()) {
    Json jh = Json::make_object();
    jh.set("count", exact(h.count));
    jh.set("sum", num(h.sum));
    jh.set("min", num(h.min));
    jh.set("max", num(h.max));
    jh.set("mean", num(h.mean()));
    histograms.set(name, std::move(jh));
  }
  Json jmetrics = Json::make_object();
  jmetrics.set("counters", std::move(counters));
  jmetrics.set("gauges", std::move(gauges));
  jmetrics.set("histograms", std::move(histograms));
  doc.set("metrics", std::move(jmetrics));
  return doc;
}

RunReport RunReport::from_json(std::string_view text) {
  const Json doc = Json::parse(text);
  if (const Json* schema = doc.find("schema");
      !schema || schema->as_string() != "pdc.run_report.v1") {
    throw std::runtime_error("RunReport: unknown schema");
  }

  RunReport out;
  out.classifier = doc.at("classifier").as_string();
  out.nprocs = static_cast<int>(doc.at("nprocs").as_number());
  out.records = static_cast<std::uint64_t>(doc.at("records").as_number());

  for (const auto& rj : doc.at("ranks").items()) {
    Rank rk;
    rk.clock.compute_s = rj.at("compute_s").as_number();
    rk.clock.comm_s = rj.at("comm_s").as_number();
    rk.clock.io_s = rj.at("io_s").as_number();
    // Reports written before the async pipeline lack io_hidden_s.
    if (const Json* hidden = rj.find("io_hidden_s")) {
      rk.clock.io_hidden_s = hidden->as_number();
    }
    rk.clock.idle_s = rj.at("idle_s").as_number();
    rk.io.read_ops = static_cast<std::size_t>(rj.at("read_ops").as_number());
    rk.io.write_ops = static_cast<std::size_t>(rj.at("write_ops").as_number());
    rk.io.bytes_read =
        static_cast<std::size_t>(rj.at("bytes_read").as_number());
    rk.io.bytes_written =
        static_cast<std::size_t>(rj.at("bytes_written").as_number());
    out.ranks.push_back(rk);
  }

  const Json& tj = doc.at("tree");
  out.tree.nodes = static_cast<std::uint64_t>(tj.at("nodes").as_number());
  out.tree.leaves = static_cast<std::uint64_t>(tj.at("leaves").as_number());
  out.tree.depth = static_cast<std::int32_t>(tj.at("depth").as_number());

  if (const Json* lock = doc.find("lockstep_divergence")) {
    for (const auto& ej : lock->items()) {
      LockstepRank e;
      e.rank = static_cast<int>(ej.at("rank").as_number());
      e.global_rank = static_cast<int>(ej.at("global_rank").as_number());
      e.site = std::strtoull(ej.at("site").as_string().c_str(), nullptr, 16);
      e.seq = static_cast<std::uint64_t>(ej.at("seq").as_number());
      e.prim = ej.at("prim").as_string();
      e.where = ej.at("where").as_string();
      out.lockstep_divergence.push_back(std::move(e));
    }
  }

  if (const Json* acc = doc.find("accuracy")) {
    out.accuracy = acc->as_number();
  }

  const Json& mj = doc.at("metrics");
  for (const auto& [name, v] : mj.at("counters").members()) {
    out.metrics.counter(name).value =
        static_cast<std::uint64_t>(v.as_number());
  }
  for (const auto& [name, v] : mj.at("gauges").members()) {
    out.metrics.gauge(name).value = v.as_number();
  }
  for (const auto& [name, v] : mj.at("histograms").members()) {
    HistogramSummary& h = out.metrics.histogram(name);
    h.count = static_cast<std::uint64_t>(v.at("count").as_number());
    h.sum = v.at("sum").as_number();
    // An empty histogram serializes min/max (±inf) as null.
    if (v.at("min").is_number()) h.min = v.at("min").as_number();
    if (v.at("max").is_number()) h.max = v.at("max").as_number();
  }
  return out;
}

}  // namespace pdc::obs
