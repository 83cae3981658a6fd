// Serve throughput — interpreted vs compiled vs batched vs replicated.
//
// Four serving paths over the same trained tree and the same fresh record
// stream:
//
//   serve/interp           pointer-chasing DecisionTree::classify, 1 thread
//   serve/compiled/single  CompiledTree::predict (flat array, predicated
//                          descent), 1 thread
//   serve/compiled/batch   CompiledTree::predict_block (SoA lanes), 1 thread
//   serve/replicas/r=N     the real pdc::serve Server: N replica workers
//                          fed by the closed-loop load generator
//
// Every point appends a JSONL row via PDC_BENCH_JSON with records_per_s,
// the wall seconds of the reported repetition and the host's hardware
// thread count; scripts/check_bench.py --serve gates compiled-batch >= 5x
// interpreted (single thread) and replica scaling efficiency >= 0.7 at r=4
// normalized by min(4, hw_threads), so the gate stays meaningful on small
// CI hosts.
//
// Wall time, not the modeled clock: serving sits outside the SPMD cost
// model; the claim here is a real machine-throughput ratio.

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "clouds/builder.hpp"
#include "data/agrawal.hpp"
#include "harness.hpp"
#include "obs/json.hpp"
#include "serve/compiled_tree.hpp"
#include "serve/loadgen.hpp"
#include "serve/record_block.hpp"
#include "serve/server.hpp"

namespace {

using pdc::bench::append_json_row;
using pdc::bench::json_num;
using pdc::clouds::CloudsBuilder;
using pdc::clouds::CloudsConfig;
using pdc::clouds::DecisionTree;
using pdc::data::AgrawalGenerator;
using pdc::data::Record;
using pdc::serve::CompiledTree;
using pdc::serve::RecordBlock;
using pdc::serve::wall_seconds;

unsigned hw_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// The fastest of several repetitions: its throughput and wall seconds.
struct Best {
  double records_per_s = 0.0;
  double wall_s = 0.0;

  void consider(double rps, double seconds) {
    if (rps > records_per_s) {
      records_per_s = rps;
      wall_s = seconds;
    }
  }
};

pdc::obs::Json serve_row(const std::string& label, const std::string& mode,
                         int threads, std::uint64_t records, const Best& best) {
  pdc::obs::Json row = pdc::obs::Json::make_object();
  row.set("label", pdc::obs::Json::make_string(label));
  row.set("mode", pdc::obs::Json::make_string(mode));
  row.set("threads", json_num(threads));
  row.set("hw_threads", json_num(hw_threads()));
  row.set("records", json_num(records));
  row.set("wall_s", json_num(best.wall_s));
  row.set("records_per_s", json_num(best.records_per_s));
  return row;
}

/// Best-of-`reps` for `body()` over `records` records; the sink defeats
/// dead-code elimination of the prediction loops.
template <typename Body>
Best best_of(int reps, std::uint64_t records, Body&& body,
             std::uint64_t* sink) {
  Best best;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = wall_seconds();
    *sink += body();
    const double dt = wall_seconds() - t0;
    if (dt > 0.0) best.consider(static_cast<double>(records) / dt, dt);
  }
  return best;
}

}  // namespace

int main() {
  const std::uint64_t n_train = pdc::bench::scaled(2'000'000);
  const std::uint64_t n_serve = pdc::bench::scaled(200'000);
  constexpr int kReps = 3;
  constexpr std::size_t kBatch = 2048;

  // Label noise keeps purity from stopping growth early, so the trained
  // tree is deep and wide enough that serving cost is dominated by the
  // descent (the regime the compiled layer exists for), not by a handful
  // of cache-resident nodes.
  AgrawalGenerator gen({.function = 2, .seed = 404, .label_noise = 0.1});
  const auto train = gen.make_range(0, n_train);
  CloudsConfig ccfg;
  ccfg.purity_stop = 0.999;
  ccfg.max_depth = 40;
  const DecisionTree tree = CloudsBuilder{ccfg}.build(train);
  const CompiledTree compiled = CompiledTree::compile(tree);

  AgrawalGenerator fresh_gen({.function = 2, .seed = 505});
  const auto fresh = fresh_gen.make_range(0, n_serve);
  const auto block = RecordBlock::from_records(fresh);

  std::printf("Serve throughput: %llu fresh records, tree of %zu nodes "
              "(depth %d), %u hardware threads\n\n",
              static_cast<unsigned long long>(n_serve),
              compiled.node_count(), compiled.depth(), hw_threads());

  std::uint64_t sink = 0;

  const Best interp = best_of(
      kReps, n_serve,
      [&] {
        std::uint64_t acc = 0;
        for (const Record& r : fresh) {
          acc += static_cast<std::uint64_t>(tree.classify(r));
        }
        return acc;
      },
      &sink);
  append_json_row(serve_row("serve/interp", "interpreted", 1, n_serve, interp));
  std::printf("%-24s %12.0f records/s\n", "interpreted",
              interp.records_per_s);

  const Best single = best_of(
      kReps, n_serve,
      [&] {
        std::uint64_t acc = 0;
        for (const Record& r : fresh) {
          acc += static_cast<std::uint64_t>(compiled.predict(r));
        }
        return acc;
      },
      &sink);
  append_json_row(serve_row("serve/compiled/single", "compiled-single", 1,
                            n_serve, single));
  std::printf("%-24s %12.0f records/s (%.1fx interp)\n", "compiled single",
              single.records_per_s,
              single.records_per_s / interp.records_per_s);

  std::vector<std::int8_t> out(block.size());
  const Best batch = best_of(
      kReps, n_serve,
      [&] {
        compiled.predict_block(block, out);
        return static_cast<std::uint64_t>(out[0]);
      },
      &sink);
  append_json_row(
      serve_row("serve/compiled/batch", "compiled-batch", 1, n_serve, batch));
  std::printf("%-24s %12.0f records/s (%.1fx interp)\n", "compiled batch",
              batch.records_per_s,
              batch.records_per_s / interp.records_per_s);

  // Replica scaling through the real server + closed-loop load generator.
  std::printf("\n");
  double rps_r1 = 0.0;
  for (const int r : {1, 2, 4}) {
    Best best;
    for (int rep = 0; rep < kReps; ++rep) {
      pdc::serve::Server server(
          compiled, {.replicas = r,
                     .queue_capacity = 4 * static_cast<std::size_t>(r)});
      pdc::serve::LoadGenConfig cfg;
      cfg.requests = n_serve / kBatch;
      cfg.batch_records = kBatch;
      cfg.window = 2 * static_cast<std::size_t>(r);
      cfg.seed = 505;
      const auto report = pdc::serve::run_loadgen(server, compiled, cfg);
      server.shutdown();
      best.consider(report.records_per_s, report.wall_s);
    }
    if (r == 1) rps_r1 = best.records_per_s;
    append_json_row(serve_row("serve/replicas/r=" + std::to_string(r),
                              "served", r, n_serve, best));
    std::printf("served, %d replica%-3s %12.0f records/s (%.2fx r=1)\n", r,
                r == 1 ? ":" : "s:", best.records_per_s,
                best.records_per_s / rps_r1);
  }

  std::printf("\n(sink %llu)\n", static_cast<unsigned long long>(sink));
  return 0;
}
