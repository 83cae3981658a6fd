// pdc_serve_cli: serve a compiled decision-tree model — load (or train) a
// model, stand up the replica-sharded prediction server, drive it with the
// closed-loop seeded load generator, and report throughput + latency.
//
//   ./pdc_serve_cli [--model PATH] [--replicas N] [--batch N]
//                   [--requests N] [--window N] [--swap-every N]
//                   [--function 1..10] [--seed S] [--train-records N]
//                   [--save-model PATH] [--report PATH]
//
// --model accepts either a compiled blob (written by --save-model or
// serve::save_compiled) or an interpreted tree saved by pclouds_cli --save;
// the leading magic dispatches, and an interpreted tree is compiled on
// load.  Without --model a tree is trained in-process on the Agrawal
// stream first.  --report writes the pdc.serve_report.v1 JSON artifact
// (totals, latency percentiles + log2-us buckets, per-replica versions).

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "clouds/builder.hpp"
#include "clouds/model_io.hpp"
#include "data/agrawal.hpp"
#include "obs/json.hpp"
#include "serve/compiled_tree.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"

namespace {

struct Options {
  std::string model_path;
  std::string save_model_path;
  std::string report_path;
  std::uint64_t replicas = 2;
  std::uint64_t batch = 512;
  std::uint64_t requests = 64;
  std::uint64_t window = 8;
  std::uint64_t swap_every = 0;
  std::uint64_t function = 2;
  std::uint64_t seed = 1;
  std::uint64_t train_records = 20'000;
  bool help = false;
};

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: pdc_serve_cli [options]\n"
      "  --model PATH         model to serve: a compiled blob or an\n"
      "                       interpreted tree from pclouds_cli --save\n"
      "                       (compiled on load); default: train in-process\n"
      "  --replicas N         sharded server replicas (default 2)\n"
      "  --batch N            records per request batch (default 512)\n"
      "  --requests N         total batches to push (default 64)\n"
      "  --window N           outstanding batches, closed loop (default 8)\n"
      "  --swap-every N       hot-swap (republish) the model after every N\n"
      "                       completed requests (default 0 = never)\n"
      "  --function 1..10     Agrawal labeling function (default 2)\n"
      "  --seed S             stream seed (default 1)\n"
      "  --train-records N    in-process training size (default 20000)\n"
      "  --save-model PATH    write the compiled blob and continue\n"
      "  --report PATH        write the pdc.serve_report.v1 JSON artifact\n"
      "  --help               this message\n");
}

bool parse_count(const char* flag, const char* val, std::uint64_t min,
                 std::uint64_t max, std::uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(val, &end, 10);
  if (val[0] == '-' || end == val || *end != '\0' || errno == ERANGE ||
      v < min || v > max) {
    std::fprintf(
        stderr,
        "pdc_serve_cli: %s wants an integer in [%llu, %llu], got '%s'\n",
        flag, static_cast<unsigned long long>(min),
        static_cast<unsigned long long>(max), val);
    return false;
  }
  *out = v;
  return true;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
      return true;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "pdc_serve_cli: %s needs a value\n", arg.c_str());
      return false;
    }
    const char* val = argv[++i];
    if (arg == "--model") {
      opt.model_path = val;
    } else if (arg == "--save-model") {
      opt.save_model_path = val;
    } else if (arg == "--report") {
      opt.report_path = val;
    } else if (arg == "--replicas") {
      if (!parse_count("--replicas", val, 1, 64, &opt.replicas)) return false;
    } else if (arg == "--batch") {
      if (!parse_count("--batch", val, 1, 1'000'000, &opt.batch)) return false;
    } else if (arg == "--requests") {
      if (!parse_count("--requests", val, 1, 10'000'000, &opt.requests)) {
        return false;
      }
    } else if (arg == "--window") {
      if (!parse_count("--window", val, 1, 100'000, &opt.window)) return false;
    } else if (arg == "--swap-every") {
      if (!parse_count("--swap-every", val, 0, 10'000'000, &opt.swap_every)) {
        return false;
      }
    } else if (arg == "--function") {
      if (!parse_count("--function", val, 1, 10, &opt.function)) return false;
    } else if (arg == "--seed") {
      if (!parse_count("--seed", val, 0, ~std::uint64_t{0}, &opt.seed)) {
        return false;
      }
    } else if (arg == "--train-records") {
      if (!parse_count("--train-records", val, 10, 100'000'000,
                       &opt.train_records)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "pdc_serve_cli: unknown option '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  return true;
}

pdc::serve::CompiledTree obtain_model(const Options& opt) {
  using pdc::serve::CompiledTree;
  if (!opt.model_path.empty()) {
    const auto magic = pdc::clouds::peek_model_magic(opt.model_path);
    if (magic == pdc::serve::kCompiledMagic) {
      std::printf("model: compiled blob %s\n", opt.model_path.c_str());
      return pdc::serve::load_compiled(opt.model_path);
    }
    // Interpreted tree (pclouds_cli --save) -> compile on load.
    std::printf("model: interpreted tree %s (compiling)\n",
                opt.model_path.c_str());
    return CompiledTree::compile(pdc::clouds::load_tree(opt.model_path));
  }
  std::printf("model: training in-process (function %llu, %llu records)\n",
              static_cast<unsigned long long>(opt.function),
              static_cast<unsigned long long>(opt.train_records));
  pdc::data::AgrawalGenerator gen(
      {.function = static_cast<int>(opt.function), .seed = opt.seed});
  const auto train = gen.make_range(0, opt.train_records);
  pdc::clouds::CloudsBuilder builder{pdc::clouds::CloudsConfig{}};
  return CompiledTree::compile(builder.build(train));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    print_usage(stderr);
    return 2;
  }
  if (opt.help) {
    print_usage(stdout);
    return 0;
  }

  try {
    const auto model = obtain_model(opt);
    std::printf("model: %zu nodes, depth %d, %zu leaves\n",
                model.node_count(), model.depth(), model.leaf_count());
    if (!opt.save_model_path.empty()) {
      pdc::serve::save_compiled(model, opt.save_model_path);
      std::printf("saved compiled blob: %s\n", opt.save_model_path.c_str());
    }

    pdc::serve::Server server(
        model, {.replicas = static_cast<int>(opt.replicas),
                .queue_capacity = 2 * static_cast<std::size_t>(opt.window)});
    pdc::serve::LoadGenConfig cfg;
    cfg.requests = opt.requests;
    cfg.batch_records = opt.batch;
    cfg.window = opt.window;
    cfg.seed = opt.seed;
    cfg.function = static_cast<int>(opt.function);
    cfg.swap_every = opt.swap_every;
    const auto report = pdc::serve::run_loadgen(server, model, cfg);
    server.shutdown();

    std::printf("served %llu records in %llu batches over %d replicas\n",
                static_cast<unsigned long long>(report.total_records),
                static_cast<unsigned long long>(report.total_requests),
                report.replicas);
    std::printf("throughput: %.0f records/s (wall %.3fs)\n",
                report.records_per_s, report.wall_s);
    std::printf("latency us: p50 %.1f  p90 %.1f  p99 %.1f  max %.1f\n",
                report.p50_us, report.p90_us, report.p99_us,
                report.latency_us.count ? report.latency_us.max : 0.0);
    if (report.swaps != 0) {
      std::printf("hot-swaps: %llu (final version %llu)\n",
                  static_cast<unsigned long long>(report.swaps),
                  static_cast<unsigned long long>(server.version()));
    }

    if (!opt.report_path.empty()) {
      pdc::obs::write_json_file(opt.report_path, report.to_json().dump());
      std::printf("report: %s\n", opt.report_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdc_serve_cli: %s\n", e.what());
    return 1;
  }
  return 0;
}
