// Golden-schema tests for the machine-readable artifacts: the
// pdc.run_report.v1 JSON document, the Chrome trace_event JSON, the
// critical-path profile, the drift and serve reports, and the static
// analyzer's pdc.analysis.v1 report.
//
// The goldens (tests/golden/*.golden.json) pin the KEY STRUCTURE, not the
// values: a document is reduced to a canonical shape string (object keys in
// document order mapped to their value shapes; arrays collapsed to the
// deduplicated set of element shapes; the dynamic-key maps "counters",
// "gauges", "histograms" and "args" collapsed to the shapes of their
// values).  Renaming, adding or dropping a field breaks the test; numeric
// drift never does.  Regenerate with PDC_UPDATE_GOLDEN=1 after a deliberate
// schema change and commit the diff; regeneration writes the smallest
// document with the same shape (one element per distinct array-element
// shape), so a golden stays a few events long however large the run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "clouds/metrics.hpp"
#include "data/dataset.hpp"
#include "drift_report.hpp"
#include "io/scratch.hpp"
#include "mp/runtime.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "clouds/builder.hpp"
#include "pclouds/pclouds.hpp"
#include "serve/compiled_tree.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"

#ifndef PDC_GOLDEN_DIR
#error "PDC_GOLDEN_DIR must point at the checked-in golden files"
#endif

namespace pdc {
namespace {

namespace fs = std::filesystem;

bool dynamic_key_map(const std::string& key) {
  return key == "counters" || key == "gauges" || key == "histograms" ||
         key == "args" || key == "by_phase" || key == "by_depth";
}

std::string shape_of(const obs::Json& j, bool collapse_keys = false) {
  switch (j.type()) {
    case obs::Json::Type::kNull:
      return "null";
    case obs::Json::Type::kBool:
      return "bool";
    case obs::Json::Type::kNumber:
      return "num";
    case obs::Json::Type::kString:
      return "str";
    case obs::Json::Type::kArray: {
      std::set<std::string> shapes;
      for (const auto& e : j.items()) shapes.insert(shape_of(e));
      std::string out = "[";
      for (const auto& s : shapes) out += s + ";";
      return out + "]";
    }
    case obs::Json::Type::kObject: {
      if (collapse_keys) {
        std::set<std::string> shapes;
        for (const auto& [k, v] : j.members()) shapes.insert(shape_of(v));
        std::string out = "{*:";
        for (const auto& s : shapes) out += s + ";";
        return out + "}";
      }
      std::string out = "{";
      for (const auto& [k, v] : j.members()) {
        out += k + ":" + shape_of(v, dynamic_key_map(k)) + ",";
      }
      return out + "}";
    }
  }
  return "?";
}

/// The smallest document with the same shape_of: arrays keep the first
/// element of each distinct shape, dynamic-key maps the first member of
/// each distinct value shape.  Goldens are written this way.
obs::Json minimal(const obs::Json& j, bool collapse_keys = false) {
  std::set<std::string> seen;
  if (j.is_array()) {
    obs::Json out = obs::Json::make_array();
    for (const auto& e : j.items()) {
      if (seen.insert(shape_of(e)).second) out.push_back(minimal(e));
    }
    return out;
  }
  if (!j.is_object()) return j;
  obs::Json out = obs::Json::make_object();
  for (const auto& [k, v] : j.members()) {
    if (collapse_keys && !seen.insert(shape_of(v)).second) continue;
    out.set(k, minimal(v, !collapse_keys && dynamic_key_map(k)));
  }
  return out;
}

std::string read_text(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// One small traced pCLOUDS run (pipeline on, so the schema exercises the
/// overlap counters) producing the run report, trace, profile and overlay.
struct Artifacts {
  std::string report_json;
  std::string trace_json;
  std::string profile_json;
  std::string trace_overlay_json;
};

Artifacts generate() {
  const int p = 2;
  const std::uint64_t n = 2000;
  io::ScratchArena arena("golden", p);
  mp::Runtime rt(p);
  obs::Tracer tracer(p);
  data::AgrawalGenerator gen({.function = 2, .seed = 11});
  data::DatasetPartition part(n, p);
  data::Sampler sampler(0.05, 4);

  std::vector<io::IoStats> rank_io(static_cast<std::size_t>(p));
  clouds::TreeShape shape;
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
        cfg.clouds.q_root = 200;
        cfg.memory_bytes = 32 << 10;
        cfg.clouds.pipeline.queue_depth = 2;
        auto tree =
            pclouds::pclouds_train(comm, cfg, disk, "train.dat", sample);
        rank_io[static_cast<std::size_t>(comm.rank())] = disk.stats();
        if (comm.rank() == 0) {
          std::lock_guard lock(mu);
          shape = clouds::shape_of(tree);
        }
      },
      &tracer);

  obs::RunReport run;
  run.classifier = "pclouds";
  run.nprocs = p;
  run.records = n;
  for (std::size_t r = 0; r < report.clocks.size(); ++r) {
    run.ranks.push_back({report.clocks[r], rank_io[r]});
  }
  run.tree.nodes = shape.nodes;
  run.tree.leaves = shape.leaves;
  run.tree.depth = shape.depth;
  run.accuracy = 0.9;  // presence, not value, is the schema property
  run.metrics = tracer.merged_metrics();

  Artifacts out;
  out.report_json = run.to_json().dump();
  out.trace_json = tracer.chrome_json();
  const obs::Profile profile = obs::build_profile(tracer, report.clocks);
  out.profile_json = profile.to_json().dump();
  const auto overlay = obs::overlay_events(profile);
  out.trace_overlay_json = tracer.chrome_json(&overlay);
  return out;
}

class GoldenSchema : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { artifacts_ = new Artifacts(generate()); }
  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }
  static Artifacts* artifacts_;
};

Artifacts* GoldenSchema::artifacts_ = nullptr;

void check_against_golden(const std::string& actual_json,
                          const char* golden_name) {
  const fs::path golden_path = fs::path(PDC_GOLDEN_DIR) / golden_name;
  if (std::getenv("PDC_UPDATE_GOLDEN") != nullptr) {
    fs::create_directories(golden_path.parent_path());
    obs::write_json_file(golden_path.string(),
                         minimal(obs::Json::parse(actual_json)).dump());
    return;
  }
  const std::string golden_text = read_text(golden_path);
  ASSERT_FALSE(golden_text.empty())
      << "missing golden " << golden_path
      << " (regenerate with PDC_UPDATE_GOLDEN=1)";
  const auto golden_shape = shape_of(obs::Json::parse(golden_text));
  const auto actual_shape = shape_of(obs::Json::parse(actual_json));
  EXPECT_EQ(actual_shape, golden_shape)
      << "schema drift vs " << golden_name
      << " — if intended, regenerate with PDC_UPDATE_GOLDEN=1 and commit";
}

TEST_F(GoldenSchema, RunReportKeyStructureMatchesGolden) {
  check_against_golden(artifacts_->report_json, "run_report.golden.json");
}

TEST_F(GoldenSchema, ChromeTraceKeyStructureMatchesGolden) {
  check_against_golden(artifacts_->trace_json, "trace.golden.json");
}

TEST_F(GoldenSchema, ProfileKeyStructureMatchesGolden) {
  check_against_golden(artifacts_->profile_json, "profile.golden.json");
}

TEST_F(GoldenSchema, TraceOverlayKeyStructureMatchesGolden) {
  check_against_golden(artifacts_->trace_overlay_json,
                       "trace_overlay.golden.json");
}

TEST_F(GoldenSchema, RunReportRoundTripsThroughParse) {
  const auto back = obs::RunReport::from_json(artifacts_->report_json);
  EXPECT_EQ(back.to_json().dump(), artifacts_->report_json);
  // The pipelined run recorded hidden I/O and it survives the round trip.
  double hidden = 0.0;
  for (const auto& r : back.ranks) hidden += r.clock.io_hidden_s;
  EXPECT_GT(hidden, 0.0);
}

// The analyzer's report schema is pinned the same way: run the tool over
// its own fixtures (stable input set, every check firing) and shape-compare
// the JSON.  Skips when python3 is not on PATH (the ctest entries that
// need it are themselves gated on find_package(Python3)).
TEST(GoldenSchema2, AnalyzerReportKeyStructureMatchesGolden) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const fs::path root =
      fs::path(PDC_GOLDEN_DIR).parent_path().parent_path();
  const fs::path out =
      fs::temp_directory_path() / "pdc_analysis_schema.json";
  const std::string cmd =
      "python3 " + (root / "scripts" / "pdc_analyze.py").string() +
      " --no-cache --json " + out.string() + " " +
      (root / "tests" / "analyzer_fixtures").string() +
      " > /dev/null 2>&1";
  // Exit 1 is expected: the fixtures exist to trigger findings.
  const int rc = std::system(cmd.c_str());
  ASSERT_NE(rc, -1);
  const std::string json = read_text(out);
  std::error_code ec;
  fs::remove(out, ec);
  ASSERT_FALSE(json.empty()) << "analyzer produced no report";
  check_against_golden(json, "analysis.golden.json");
}

/// A small synthetic drift report built through the real builder
/// (tests/drift_report.hpp).
drift::DriftReport small_drift_report() {
  drift::DriftReport report;
  drift::NodeCell cell;
  cell.p = 2;
  cell.vote_k = 2;
  cell.trials = 3;
  cell.agreements = 3;
  cell.gini_delta.add(0.0);
  cell.gini_delta.add(0.01);
  report.node_cells.push_back(cell);
  report.tree_runs.push_back({2, 4, 2, 0.98, 0.979});
  return report;
}

/// One tiny served run through the real server + load generator.
serve::ServeReport small_serve_report() {
  data::AgrawalGenerator gen({.function = 2, .seed = 3});
  const auto train = gen.make_range(0, 1500);
  clouds::CloudsBuilder builder{clouds::CloudsConfig{}};
  const auto model = serve::CompiledTree::compile(builder.build(train));

  serve::Server server(model, {.replicas = 2, .queue_capacity = 4});
  serve::LoadGenConfig cfg;
  cfg.requests = 8;
  cfg.batch_records = 64;
  cfg.window = 4;
  cfg.swap_every = 3;  // exercise the hot-swap fields
  const auto report = serve::run_loadgen(server, model, cfg);
  server.shutdown();
  return report;
}

// The drift artifact's key structure is pinned the same way, so a schema
// change in the drift suite's output cannot slip past CI or
// scripts/check_bench.py --drift unnoticed.
TEST(GoldenSchema2, DriftReportKeyStructureMatchesGolden) {
  check_against_golden(small_drift_report().to_json().dump(),
                       "drift.golden.json");
}

// The serving artifact (pdc.serve_report.v1) is pinned the same way, so
// the CLI/bench/check_bench.py --serve consumers notice schema drift.
TEST(GoldenSchema2, ServeReportKeyStructureMatchesGolden) {
  check_against_golden(small_serve_report().to_json().dump(),
                       "serve_report.golden.json");
}

// Every artifact is written by obs::write_json_file, which must report a
// lost document: on a full disk a document smaller than the stdio buffer
// fails only when fclose flushes it.
TEST_F(GoldenSchema, WritingAnyArtifactToAFullDiskThrows) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "/dev/full not available";
  const std::string docs[] = {
      artifacts_->report_json,
      artifacts_->trace_json,
      artifacts_->profile_json,
      artifacts_->trace_overlay_json,
      small_drift_report().to_json().dump(),
      small_serve_report().to_json().dump(),
  };
  for (const std::string& doc : docs) {
    for (const bool append : {false, true}) {
      try {
        obs::write_json_file("/dev/full", doc, append);
        ADD_FAILURE() << "writing " << doc.size() << " bytes to /dev/full "
                      << "did not throw";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(GoldenShape, MinimalDocumentKeepsTheShape) {
  const auto doc = obs::Json::parse(
      R"({"events": [{"a": 1}, {"a": 2}, {"b": "x"}, {"a": 3, "args": {)"
      R"("n": 1, "m": 2, "s": "t"}}], "counters": {"x": 1, "y": 2}})");
  const auto small = minimal(doc);
  EXPECT_EQ(shape_of(small), shape_of(doc));
  EXPECT_EQ(small.dump(),
            R"({"events":[{"a":1},{"b":"x"},{"a":3,"args":{"n":1,"s":"t"}}],)"
            R"("counters":{"x":1}})");
}

TEST(GoldenShape, CollapsesDynamicMapsAndArrays) {
  const auto a = obs::Json::parse(
      R"({"counters": {"x": 1, "y": 2}, "v": [1, 2, 3]})");
  const auto b = obs::Json::parse(R"({"counters": {"z": 9}, "v": [7]})");
  EXPECT_EQ(shape_of(a), shape_of(b));
  const auto c = obs::Json::parse(R"({"counters": {"z": "s"}, "v": [7]})");
  EXPECT_NE(shape_of(a), shape_of(c));
}

}  // namespace
}  // namespace pdc
