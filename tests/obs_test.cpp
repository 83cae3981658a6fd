// Observability layer tests: span recording on the modeled timeline,
// metric aggregation across ranks, Chrome trace JSON well-formedness,
// run-report round-tripping, and the zero-cost guarantee (a traced run and
// an untraced run produce bit-identical modeled costs and trees).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "io/scratch.hpp"
#include "mp/runtime.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "pclouds/pclouds.hpp"

namespace pdc::obs {
namespace {

// ------------------------------------------------------------- tracing ---

TEST(Trace, SpansReadTheModeledClock) {
  mp::Clock clock;
  Tracer tracer(1);
  RankTracer rt = tracer.rank(0, &clock);

  clock.add_compute(1.0);
  {
    SpanGuard outer(rt, "outer", "test");
    clock.add_compute(2.0);
    {
      SpanGuard inner(rt, "inner", "test", /*bytes=*/128);
      clock.add_io(0.5);
    }
    clock.add_comm(0.25);
  }

  const auto& events = tracer.events(0);
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first (RAII), so it is recorded first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_DOUBLE_EQ(events[0].begin_s, 3.0);
  EXPECT_DOUBLE_EQ(events[0].end_s, 3.5);
  EXPECT_EQ(events[0].bytes, 128u);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_DOUBLE_EQ(events[1].begin_s, 1.0);
  EXPECT_DOUBLE_EQ(events[1].end_s, 3.75);
  // The inner span nests inside the outer one on the timeline.
  EXPECT_GE(events[0].begin_s, events[1].begin_s);
  EXPECT_LE(events[0].end_s, events[1].end_s);
}

TEST(Trace, DisabledTracerRecordsNothingAndSpansAreSafe) {
  RankTracer null;
  EXPECT_FALSE(null.enabled());
  SpanGuard sp(null, "ignored", "test");
  sp.set_bytes(7);
  sp.close();
  null.count("nope");
  null.observe("nope", 1.0);
  null.counter("nope", 1.0);
  null.instant("nope", "test");
  // No crash, nothing recorded anywhere; now() falls back to zero.
  EXPECT_DOUBLE_EQ(null.now(), 0.0);
}

TEST(Trace, MetricsAggregateAcrossRanks) {
  Tracer tracer(3);
  std::vector<mp::Clock> clocks(3);
  for (int r = 0; r < 3; ++r) {
    RankTracer rt = tracer.rank(r, &clocks[static_cast<std::size_t>(r)]);
    rt.count("work.items", static_cast<std::uint64_t>(r + 1));
    rt.observe("work.sizes", static_cast<double>(10 * (r + 1)));
    rt.gauge("work.peak", static_cast<double>(r));
  }
  const MetricsRegistry merged = tracer.merged_metrics();
  EXPECT_EQ(merged.counters().at("work.items").value, 1u + 2u + 3u);
  const auto& h = merged.histograms().at("work.sizes");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 60.0);
  EXPECT_DOUBLE_EQ(h.min, 10.0);
  EXPECT_DOUBLE_EQ(h.max, 30.0);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  // Gauges merge as high-water marks.
  EXPECT_DOUBLE_EQ(merged.gauges().at("work.peak").value, 2.0);
}

TEST(Trace, ChromeJsonIsWellFormedWithOneTrackPerRank) {
  Tracer tracer(2);
  std::vector<mp::Clock> clocks(2);
  for (int r = 0; r < 2; ++r) {
    RankTracer rt = tracer.rank(r, &clocks[static_cast<std::size_t>(r)]);
    clocks[static_cast<std::size_t>(r)].add_compute(1.0 + r);
    rt.complete("phase-a", "test", 0.0, 1.0 + r, 64, 5);
    rt.instant("marker", "test");
    rt.counter("depth", 3.0);
  }

  const std::string doc = tracer.chrome_json();
  const Json parsed = Json::parse(doc);  // throws if malformed
  const Json& events = parsed.at("traceEvents");

  std::set<double> tids;
  std::size_t metadata = 0;
  std::size_t complete = 0;
  for (const auto& ev : events.items()) {
    const std::string ph = ev.at("ph").as_string();
    tids.insert(ev.at("tid").as_number());
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(ev.at("name").as_string(), "thread_name");
    } else if (ph == "X") {
      ++complete;
      EXPECT_GE(ev.at("dur").as_number(), 0.0);
    }
  }
  EXPECT_EQ(tids.size(), 2u) << "one track per rank";
  EXPECT_EQ(metadata, 2u) << "one thread_name record per rank";
  EXPECT_EQ(complete, 2u);
  // Modeled seconds exported as microseconds.
  bool found = false;
  for (const auto& ev : events.items()) {
    if (ev.at("ph").as_string() == "X" && ev.at("tid").as_number() == 1.0) {
      EXPECT_DOUBLE_EQ(ev.at("dur").as_number(), 2e6);
      EXPECT_EQ(ev.at("args").at("bytes").as_number(), 64.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------- json ---

TEST(Json, ParsesScalarsObjectsArraysAndEscapes) {
  const Json j = Json::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"nested": true}, "s": "q\"\nA",)"
      R"( "null": null, "f": false})");
  EXPECT_DOUBLE_EQ(j.at("a").at(0).as_number(), 1.0);
  EXPECT_DOUBLE_EQ(j.at("a").at(1).as_number(), 2.5);
  EXPECT_DOUBLE_EQ(j.at("a").at(2).as_number(), -300.0);
  EXPECT_TRUE(j.at("b").at("nested").as_bool());
  EXPECT_EQ(j.at("s").as_string(), "q\"\nA");
  EXPECT_EQ(j.at("null").type(), Json::Type::kNull);
  EXPECT_FALSE(j.at("f").as_bool());
  EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1, ]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("{} trailing"), std::runtime_error);
}

TEST(Json, UnsignedIntegersStayExactAboveTwoToThe53) {
  // A communicator id from a real trace; a double would print it as ...728.
  const std::uint64_t id = 1469598103934665603ull;
  Json j = Json::make_object();
  j.set("comm", Json::make_uint(id));
  EXPECT_EQ(j.at("comm").type(), Json::Type::kNumber);
  EXPECT_EQ(j.at("comm").as_number(), static_cast<double>(id));
  EXPECT_EQ(j.dump(), R"({"comm":1469598103934665603})");
  EXPECT_NE(Json::make_number(static_cast<double>(id)).dump(),
            "1469598103934665603");
}

TEST(Json, WriteJsonFileReplacesOrAppendsOneLine) {
  io::ScratchArena arena("obs_write_json", 1);
  const std::string path = (arena.rank_dir(0) / "doc.json").string();
  write_json_file(path, R"({"a":1})");
  write_json_file(path, R"({"b":2})");
  write_json_file(path, R"({"c":3})", /*append=*/true);
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "{\"b\":2}\n{\"c\":3}\n");

  const std::string missing = (arena.rank_dir(0) / "no" / "doc.json").string();
  try {
    write_json_file(missing, "{}");
    ADD_FAILURE() << "writing into a missing directory did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------------------- report ---

TEST(Report, RoundTripsThroughJson) {
  RunReport report;
  report.classifier = "pclouds";
  report.nprocs = 2;
  report.records = 8000;
  for (int r = 0; r < 2; ++r) {
    RunReport::Rank rank;
    rank.clock.compute_s = 1.5 + r;
    rank.clock.comm_s = 0.25;
    rank.clock.io_s = 0.125;
    rank.clock.idle_s = 0.0625 * r;
    rank.io.read_ops = 10 + static_cast<std::size_t>(r);
    rank.io.write_ops = 4;
    rank.io.bytes_read = 1 << 20;
    rank.io.bytes_written = 1 << 18;
    report.ranks.push_back(rank);
  }
  report.tree.nodes = 31;
  report.tree.leaves = 16;
  report.tree.depth = 7;
  report.accuracy = 0.9375;
  report.metrics.counter("clouds.gini_evals").add(1234);
  report.metrics.gauge("dc.queue_peak").set(5.0);
  report.metrics.histogram("dc.combiner_message_bytes").observe(4096.0);
  report.metrics.histogram("dc.combiner_message_bytes").observe(512.0);
  report.metrics.histogram("empty.histogram");  // min/max serialize as null

  const RunReport back = RunReport::from_json(report.to_json().dump());
  EXPECT_EQ(back.classifier, "pclouds");
  EXPECT_EQ(back.nprocs, 2);
  EXPECT_EQ(back.records, 8000u);
  ASSERT_EQ(back.ranks.size(), 2u);
  EXPECT_DOUBLE_EQ(back.ranks[1].clock.compute_s, 2.5);
  EXPECT_DOUBLE_EQ(back.ranks[1].clock.idle_s, 0.0625);
  EXPECT_EQ(back.ranks[0].io.read_ops, 10u);
  EXPECT_EQ(back.tree.nodes, 31u);
  EXPECT_EQ(back.tree.depth, 7);
  EXPECT_DOUBLE_EQ(back.accuracy, 0.9375);
  EXPECT_EQ(back.metrics.counters().at("clouds.gini_evals").value, 1234u);
  EXPECT_DOUBLE_EQ(back.metrics.gauges().at("dc.queue_peak").value, 5.0);
  const auto& h = back.metrics.histograms().at("dc.combiner_message_bytes");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.sum, 4608.0);
  EXPECT_DOUBLE_EQ(h.min, 512.0);
  EXPECT_DOUBLE_EQ(h.max, 4096.0);
  EXPECT_EQ(back.metrics.histograms().at("empty.histogram").count, 0u);
  // Derived quantities agree too.
  EXPECT_DOUBLE_EQ(back.parallel_time_s(), report.parallel_time_s());
  EXPECT_DOUBLE_EQ(back.balance(), report.balance());

  EXPECT_THROW(RunReport::from_json("{\"schema\": \"other\"}"),
               std::runtime_error);
}

// ----------------------------------------------- end-to-end invariance ---

struct PcloudsOutcome {
  std::string tree_text;
  std::vector<mp::ClockSnapshot> clocks;
};

PcloudsOutcome run_pclouds(Tracer* tracer) {
  constexpr int kProcs = 4;
  io::ScratchArena arena(tracer ? "obs_traced" : "obs_plain", kProcs);
  mp::Runtime rt(kProcs);
  data::AgrawalGenerator gen({.function = 2, .seed = 5});
  data::DatasetPartition part(8000, kProcs);
  data::Sampler sampler(0.05, 99);

  PcloudsOutcome out;
  std::mutex mu;
  const auto report = rt.run(
      [&](mp::Comm& comm) {
        io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                           &comm.clock(), comm.tracer());
        data::materialize_local_slice(gen, part, comm.rank(), disk,
                                      "train.dat", 1024);
        const auto sample =
            data::draw_local_sample(gen, part, sampler, comm.rank());
        pclouds::PcloudsConfig cfg;
        cfg.clouds.method = clouds::SplitMethod::kSSE;
        cfg.clouds.q_root = 400;
        cfg.memory_bytes = 64 * 1024;
        auto tree =
            pclouds::pclouds_train(comm, cfg, disk, "train.dat", sample);
        if (comm.rank() == 0) {
          std::lock_guard lock(mu);
          out.tree_text = tree.to_string();
        }
      },
      tracer);
  out.clocks = report.clocks;
  return out;
}

TEST(Obs, TracedRunIsBitIdenticalToUntracedRun) {
  const PcloudsOutcome plain = run_pclouds(nullptr);
  Tracer tracer(4);
  const PcloudsOutcome traced = run_pclouds(&tracer);

  EXPECT_EQ(plain.tree_text, traced.tree_text);
  ASSERT_EQ(plain.clocks.size(), traced.clocks.size());
  for (std::size_t r = 0; r < plain.clocks.size(); ++r) {
    EXPECT_EQ(plain.clocks[r].compute_s, traced.clocks[r].compute_s);
    EXPECT_EQ(plain.clocks[r].comm_s, traced.clocks[r].comm_s);
    EXPECT_EQ(plain.clocks[r].io_s, traced.clocks[r].io_s);
    EXPECT_EQ(plain.clocks[r].idle_s, traced.clocks[r].idle_s);
  }
}

TEST(Obs, PcloudsRunProducesPhaseSpansOnEveryRank) {
  Tracer tracer(4);
  run_pclouds(&tracer);

  std::set<std::string> names;
  for (int r = 0; r < 4; ++r) {
    EXPECT_FALSE(tracer.events(r).empty()) << "rank " << r << " has a track";
    for (const auto& ev : tracer.events(r)) names.insert(ev.name);
  }
  // The modeled run exercises all the major phase types.
  for (const char* phase :
       {"histogram-build", "combiner-exchange", "gini-evaluation",
        "alive-evaluation", "partition-pass", "subtree-assembly",
        "disk_read", "disk_write"}) {
    EXPECT_TRUE(names.count(phase)) << "missing phase span: " << phase;
  }
  // Comm primitives appear as spans too.
  EXPECT_TRUE(names.count("all_reduce"));
  EXPECT_TRUE(names.count("all_to_all_broadcast"));

  // Span timestamps stay within the rank's final timeline position and the
  // trace parses as valid Chrome JSON.
  for (int r = 0; r < 4; ++r) {
    for (const auto& ev : tracer.events(r)) {
      if (ev.kind == TraceEvent::Kind::kComplete) {
        EXPECT_LE(ev.begin_s, ev.end_s);
      }
    }
  }
  EXPECT_NO_THROW(Json::parse(tracer.chrome_json()));

  // The per-rank metrics fold into global aggregates.
  const auto merged = tracer.merged_metrics();
  EXPECT_GT(merged.counters().at("clouds.gini_evals").value, 0u);
  EXPECT_GT(merged.counters().at("mp.primitives").value, 0u);
  EXPECT_GT(merged.histograms().at("dc.combiner_message_bytes").count, 0u);
}

}  // namespace
}  // namespace pdc::obs
