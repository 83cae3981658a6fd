// pclouds_cli: a full command-line driver over the library — generate a
// workload, train (pCLOUDS or pSPRINT), prune, evaluate, optionally save
// the model, and report the modeled cost breakdown.
//
//   ./pclouds_cli [--procs N] [--records N] [--function 1..10]
//                 [--classifier pclouds|sprint] [--method ss|sse]
//                 [--strategy data|concat|task|groups|mixed]
//                 [--combiner attr|interval|hybrid|dist|voting]
//                 [--vote-k K] [--hist-bits N]
//                 [--q N] [--memory BYTES] [--noise F] [--sample F]
//                 [--save PATH] [--no-prune]
//                 [--trace PATH] [--report PATH] [--profile PATH]
//                 [--scratch DIR] [--checkpoint-every N] [--resume]
//                 [--inject SPEC] [--queue-depth N]
//
// --trace writes a Chrome trace_event JSON of the modeled timeline (load in
// Perfetto / chrome://tracing: one track per rank, spans for every phase and
// collective).  --report writes a structured JSON run report (per-rank
// clocks + I/O, tree shape, accuracy, metric aggregates).  --profile writes
// the critical-path profile (pdc.profile.v1: bottleneck attribution by
// phase and tree depth plus what-if headroom projections) and prints the
// bottleneck summary; combined with --trace the critical path is drawn on
// the trace as a crit.* overlay track.  All three are observers only: the
// modeled costs and the tree are bit-identical with or without them.
//
// Robustness flags: --inject plants deterministic disk/comm faults (grammar
// in fault/fault.hpp, e.g. "disk_write:rank=1:op=3:times=2"), --scratch
// keeps the per-rank disks at a fixed path across process restarts, and
// --checkpoint-every/--resume snapshot and restore the divide-and-conquer
// state so a killed run finishes with the identical tree.  A run killed by
// an unrecovered fault exits with status 3; a snapshot the run refuses to
// resume (corrupt, or taken under other settings) exits with status 1.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "clouds/metrics.hpp"
#include "clouds/model_io.hpp"
#include "data/dataset.hpp"
#include "fault/fault.hpp"
#include "io/pipeline.hpp"
#include "io/scratch.hpp"
#include "mp/lockstep.hpp"
#include "mp/runtime.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "pclouds/evaluate.hpp"
#include "pclouds/pclouds.hpp"
#include "sprint/sprint.hpp"

namespace {

struct Options {
  int procs = 4;
  std::uint64_t records = 20'000;
  int function = 2;
  std::string classifier = "pclouds";
  std::string method = "sse";
  std::string strategy = "mixed";
  std::string combiner = "attr";
  int vote_k = 2;
  int hist_bits = 0;
  int q = 1000;
  std::size_t memory = 0;  // 0: paper-scaled
  double noise = 0.0;
  double sample = 0.05;
  std::string save_path;
  bool prune = true;
  std::string trace_path;
  std::string report_path;
  std::string profile_path;
  std::string scratch_dir;
  std::uint64_t checkpoint_every = 0;
  bool resume = false;
  std::string inject;
  std::size_t queue_depth = 0;
  bool help = false;
};

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: pclouds_cli [options]\n"
      "  --procs N                virtual processors (default 4)\n"
      "  --records N              training records (default 20000)\n"
      "  --function 1..10         Agrawal labeling function (default 2)\n"
      "  --classifier pclouds|sprint\n"
      "  --method ss|sse          large-node splitter (default sse)\n"
      "  --strategy data|concat|task|groups|mixed\n"
      "  --combiner attr|interval|hybrid|dist|voting\n"
      "  --vote-k K               voting: attributes each rank nominates\n"
      "                           (default 2; 2K >= 9 is exact)\n"
      "  --hist-bits N            voting: quantize exchanged counts to N\n"
      "                           significant bits (default 0 = exact)\n"
      "  --q N                    root interval count (default 1000)\n"
      "  --memory BYTES           per-rank memory (default: paper-scaled)\n"
      "  --noise F                label noise fraction\n"
      "  --sample F               sample rate (default 0.05)\n"
      "  --save PATH              save the pruned tree\n"
      "  --no-prune               skip MDL pruning\n"
      "  --trace PATH             write Chrome trace JSON of the modeled\n"
      "                           timeline (open in Perfetto)\n"
      "  --report PATH            write structured JSON run report\n"
      "  --profile PATH           write the critical-path profile\n"
      "                           (pdc.profile.v1) and print the\n"
      "                           bottleneck + headroom summary; with\n"
      "                           --trace the path is overlaid on the trace\n"
      "  --scratch DIR            persistent scratch root (kept across\n"
      "                           runs; required for cross-process resume)\n"
      "  --checkpoint-every N     snapshot driver state every N tasks\n"
      "  --resume                 restore the newest common snapshot\n"
      "  --inject SPEC            plant deterministic faults, e.g.\n"
      "                           disk_write:rank=1:op=3:times=2;comm_coll:"
      "op=5\n"
      "  --queue-depth N          blocks each stream keeps in flight on the\n"
      "                           disk's worker (read-ahead + write-behind;\n"
      "                           0..1024, default 0 = every request inline,\n"
      "                           the synchronous stream).  The tree is\n"
      "                           identical at every depth; only the modeled\n"
      "                           time changes\n"
      "  --help                   this message\n");
}

// Strict numeric parsing: the whole token must be a base-10 integer in
// [min, max].  atoi-style silent zeroes turn typos into tiny valid runs.
bool parse_count(const char* flag, const char* val, std::uint64_t min,
                 std::uint64_t max, std::uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(val, &end, 10);
  if (val[0] == '-' || end == val || *end != '\0' || errno == ERANGE ||
      v < min || v > max) {
    std::fprintf(stderr,
                 "pclouds_cli: %s wants an integer in [%llu, %llu], got '%s'\n",
                 flag, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), val);
    return false;
  }
  *out = v;
  return true;
}

bool parse_fraction(const char* flag, const char* val, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(val, &end);
  if (end == val || *end != '\0' || errno == ERANGE || !(v >= 0.0) ||
      !(v <= 1.0)) {
    std::fprintf(stderr,
                 "pclouds_cli: %s wants a fraction in [0, 1], got '%s'\n",
                 flag, val);
    return false;
  }
  *out = v;
  return true;
}

bool parse_choice(const char* flag, const char* val,
                  std::initializer_list<const char*> allowed) {
  for (const char* a : allowed) {
    if (std::strcmp(val, a) == 0) return true;
  }
  std::string opts;
  for (const char* a : allowed) {
    if (!opts.empty()) opts += '|';
    opts += a;
  }
  std::fprintf(stderr, "pclouds_cli: %s wants %s, got '%s'\n", flag,
               opts.c_str(), val);
  return false;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
      return true;
    }
    if (arg == "--no-prune") {
      opt.prune = false;
      continue;
    }
    if (arg == "--resume") {
      opt.resume = true;
      continue;
    }
    // Every remaining option takes a value.
    const bool known =
        arg == "--procs" || arg == "--records" || arg == "--function" ||
        arg == "--classifier" || arg == "--method" || arg == "--strategy" ||
        arg == "--combiner" || arg == "--vote-k" || arg == "--hist-bits" ||
        arg == "--q" || arg == "--memory" ||
        arg == "--noise" || arg == "--sample" || arg == "--save" ||
        arg == "--trace" || arg == "--report" || arg == "--profile" ||
        arg == "--scratch" ||
        arg == "--checkpoint-every" || arg == "--inject" ||
        arg == "--queue-depth";
    if (!known) {
      std::fprintf(stderr, "pclouds_cli: unknown option: %s\n", arg.c_str());
      return false;
    }
    const char* val = i + 1 < argc ? argv[++i] : nullptr;
    if (!val) {
      std::fprintf(stderr, "pclouds_cli: %s requires a value\n", arg.c_str());
      return false;
    }
    std::uint64_t n = 0;
    if (arg == "--procs") {
      if (!parse_count("--procs", val, 1, 4096, &n)) return false;
      opt.procs = static_cast<int>(n);
    } else if (arg == "--records") {
      if (!parse_count("--records", val, 1, 1'000'000'000'000ull, &n)) {
        return false;
      }
      opt.records = n;
    } else if (arg == "--function") {
      if (!parse_count("--function", val, 1, 10, &n)) return false;
      opt.function = static_cast<int>(n);
    } else if (arg == "--classifier") {
      if (!parse_choice("--classifier", val, {"pclouds", "sprint"})) {
        return false;
      }
      opt.classifier = val;
    } else if (arg == "--method") {
      if (!parse_choice("--method", val, {"ss", "sse"})) return false;
      opt.method = val;
    } else if (arg == "--strategy") {
      if (!parse_choice("--strategy", val,
                        {"data", "concat", "task", "groups", "mixed"})) {
        return false;
      }
      opt.strategy = val;
    } else if (arg == "--combiner") {
      if (!parse_choice("--combiner", val,
                        {"attr", "interval", "hybrid", "dist", "voting"})) {
        return false;
      }
      opt.combiner = val;
    } else if (arg == "--vote-k") {
      if (!parse_count("--vote-k", val, 1, 9, &n)) return false;
      opt.vote_k = static_cast<int>(n);
    } else if (arg == "--hist-bits") {
      if (!parse_count("--hist-bits", val, 0, 32, &n)) return false;
      opt.hist_bits = static_cast<int>(n);
    } else if (arg == "--q") {
      if (!parse_count("--q", val, 2, 1'000'000, &n)) return false;
      opt.q = static_cast<int>(n);
    } else if (arg == "--memory") {
      if (!parse_count("--memory", val, 0, UINT64_MAX, &n)) return false;
      opt.memory = n;
    } else if (arg == "--noise") {
      if (!parse_fraction("--noise", val, &opt.noise)) return false;
    } else if (arg == "--sample") {
      if (!parse_fraction("--sample", val, &opt.sample)) return false;
      if (opt.sample == 0.0) {
        std::fprintf(stderr, "pclouds_cli: --sample must be > 0\n");
        return false;
      }
    } else if (arg == "--save") {
      opt.save_path = val;
    } else if (arg == "--trace") {
      opt.trace_path = val;
    } else if (arg == "--report") {
      opt.report_path = val;
    } else if (arg == "--profile") {
      opt.profile_path = val;
    } else if (arg == "--scratch") {
      opt.scratch_dir = val;
    } else if (arg == "--checkpoint-every") {
      if (!parse_count("--checkpoint-every", val, 0, UINT64_MAX, &n)) {
        return false;
      }
      opt.checkpoint_every = n;
    } else if (arg == "--inject") {
      opt.inject = val;
    } else if (arg == "--queue-depth") {
      if (!parse_count("--queue-depth", val, 0, 1024, &n)) return false;
      opt.queue_depth = n;
    }
  }
  if (opt.resume && opt.scratch_dir.empty()) {
    std::fprintf(stderr,
                 "pclouds_cli: --resume needs --scratch (the snapshots live "
                 "on the per-rank disks)\n");
    return false;
  }
  return true;
}

pdc::dc::Strategy strategy_of(const std::string& s) {
  using pdc::dc::Strategy;
  if (s == "data") return Strategy::kDataParallel;
  if (s == "concat") return Strategy::kConcatenated;
  if (s == "task") return Strategy::kTaskParallel;
  if (s == "groups") return Strategy::kTaskGroups;
  return Strategy::kMixed;
}

pdc::pclouds::CombineMethod combiner_of(const std::string& s) {
  using pdc::pclouds::CombineMethod;
  if (s == "interval") return CombineMethod::kReplicationInterval;
  if (s == "hybrid") return CombineMethod::kReplicationHybrid;
  if (s == "dist") return CombineMethod::kDistributed;
  if (s == "voting") return CombineMethod::kVoting;
  return CombineMethod::kReplicationAttribute;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdc;

  Options opt;
  if (!parse(argc, argv, opt)) {
    print_usage(stderr);
    return 2;
  }
  if (opt.help) {
    print_usage(stdout);
    return 0;
  }
  if (opt.memory == 0) {
    opt.memory = io::MemoryBudget::paper_scaled(opt.records).bytes();
  }

  data::AgrawalGenerator gen({.function = opt.function,
                              .seed = 2026,
                              .label_noise = opt.noise});
  data::DatasetPartition part(opt.records, opt.procs);
  data::Sampler sampler(opt.sample, 31);
  const auto test = data::make_test_set(gen, opt.records, opt.records / 4);

  fault::FaultPlan faults;
  if (!opt.inject.empty()) {
    try {
      faults = fault::FaultPlan::parse(opt.inject);
      faults.check_ranks(opt.procs);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pclouds_cli: --inject: %s\n", e.what());
      return 2;
    }
  }

  std::optional<io::ScratchArena> arena;
  if (opt.scratch_dir.empty()) {
    arena.emplace("cli", opt.procs);
  } else {
    arena.emplace(std::filesystem::path(opt.scratch_dir), opt.procs,
                  io::ScratchArena::Persist{});
  }
  mp::Runtime rt(opt.procs);

  const bool observing = !opt.trace_path.empty() ||
                         !opt.report_path.empty() ||
                         !opt.profile_path.empty();
  std::unique_ptr<obs::Tracer> tracer;
  if (observing) tracer = std::make_unique<obs::Tracer>(opt.procs);
  // Thread-confined per-rank slots (same discipline as the runtime clocks).
  std::vector<io::IoStats> rank_io(static_cast<std::size_t>(opt.procs));

  std::mutex mu;
  clouds::DecisionTree tree;
  pclouds::PcloudsDiag diag;
  clouds::Confusion confusion;

  mp::SpmdReport report;
  try {
    report = rt.run(
      [&](mp::Comm& comm) {
        io::LocalDisk disk(arena->rank_dir(comm.rank()), &comm.cost(),
                           &comm.clock(), comm.tracer(), comm.fault());
        {
          auto sp = obs::SpanGuard(comm.tracer(), "materialize", "setup",
                                   obs::kNoArg, part.count_of(comm.rank()));
          data::materialize_local_slice(gen, part, comm.rank(), disk,
                                        "train.dat", 8192);
        }

        clouds::DecisionTree local_tree;
        pclouds::PcloudsDiag local_diag;
        io::PipelineConfig pipeline;
        pipeline.queue_depth = opt.queue_depth;
        if (opt.classifier == "sprint") {
          sprint::SprintConfig cfg;
          cfg.memory_bytes = opt.memory;
          cfg.pipeline = pipeline;
          sprint::SprintBuilder builder(
              cfg, {&comm.clock(), comm.cost().machine(), comm.tracer()});
          local_tree = builder.train(comm, disk, "train.dat");
        } else {
          auto sample_span =
              obs::SpanGuard(comm.tracer(), "sample-draw", "setup");
          const auto sample =
              data::draw_local_sample(gen, part, sampler, comm.rank());
          sample_span.set_n(sample.size());
          sample_span.close();
          pclouds::PcloudsConfig cfg;
          cfg.clouds.method = opt.method == "ss" ? clouds::SplitMethod::kSS
                                                 : clouds::SplitMethod::kSSE;
          cfg.clouds.q_root = opt.q;
          cfg.strategy = strategy_of(opt.strategy);
          cfg.combiner = combiner_of(opt.combiner);
          cfg.vote_k = opt.vote_k;
          cfg.hist_bits = opt.hist_bits;
          cfg.memory_bytes = opt.memory;
          cfg.checkpoint_every = opt.checkpoint_every;
          cfg.resume = opt.resume;
          cfg.clouds.pipeline = pipeline;
          local_tree = pclouds::pclouds_train(comm, cfg, disk, "train.dat",
                                              sample, &local_diag);
        }
        if (opt.prune) {
          auto sp = obs::SpanGuard(comm.tracer(), "prune", "posttrain");
          pclouds::pclouds_prune(
              comm, local_tree, {},
              {&comm.clock(), comm.cost().machine(), comm.tracer()});
        }

        // Parallel evaluation: each rank scores a strided share.
        std::vector<data::Record> my_test;
        for (std::size_t i = static_cast<std::size_t>(comm.rank());
             i < test.size(); i += static_cast<std::size_t>(opt.procs)) {
          my_test.push_back(test[i]);
        }
        auto eval_span = obs::SpanGuard(comm.tracer(), "evaluate",
                                        "posttrain", obs::kNoArg,
                                        my_test.size());
        const auto conf = pclouds::pclouds_evaluate(
            comm, local_tree, my_test,
            {&comm.clock(), comm.cost().machine(), comm.tracer()});
        eval_span.close();

        rank_io[static_cast<std::size_t>(comm.rank())] = disk.stats();
        if (comm.rank() == 0) {
          std::lock_guard lock(mu);
          tree = std::move(local_tree);
          diag = local_diag;
          confusion = conf;
        }
      },
      tracer.get(), faults.empty() ? nullptr : &faults);
  } catch (const mp::LockstepError& e) {
    std::fprintf(stderr, "pclouds_cli: run aborted: %s", e.what());
    if (!opt.report_path.empty()) {
      obs::RunReport run;
      run.classifier = opt.classifier;
      run.nprocs = opt.procs;
      run.records = opt.records;
      for (const auto& entry : e.report().ranks) {
        run.lockstep_divergence.push_back({entry.rank, entry.global_rank,
                                           entry.site, entry.seq, entry.prim,
                                           entry.where});
      }
      if (tracer) run.metrics = tracer->merged_metrics();
      try {
        obs::write_json_file(opt.report_path, run.to_json().dump());
        std::fprintf(stderr, "pclouds_cli: divergence report: %s\n",
                     opt.report_path.c_str());
      } catch (const std::exception& we) {
        std::fprintf(stderr, "pclouds_cli: %s\n", we.what());
      }
    }
    return 4;
  } catch (const fault::DiskFault& e) {
    std::fprintf(stderr, "pclouds_cli: run lost to a disk fault: %s\n",
                 e.what());
    if (opt.checkpoint_every > 0 && !opt.scratch_dir.empty()) {
      std::fprintf(stderr,
                   "pclouds_cli: restart with --resume to continue from the "
                   "last snapshot\n");
    }
    return 3;
  } catch (const fault::CommFault& e) {
    std::fprintf(stderr, "pclouds_cli: run lost to a comm fault: %s\n",
                 e.what());
    if (opt.checkpoint_every > 0 && !opt.scratch_dir.empty()) {
      std::fprintf(stderr,
                   "pclouds_cli: restart with --resume to continue from the "
                   "last snapshot\n");
    }
    return 3;
  } catch (const std::exception& e) {
    // A snapshot the run refuses to resume (corrupt, or taken under other
    // settings) ends here rather than in std::terminate.
    std::fprintf(stderr, "pclouds_cli: run failed: %s\n", e.what());
    return 1;
  }

  const auto shape = clouds::shape_of(tree);
  std::printf("classifier  : %s (%s)\n", opt.classifier.c_str(),
              opt.classifier == "sprint" ? "presorted lists"
                                         : opt.method.c_str());
  std::printf("workload    : function %d, %llu records, noise %.2f\n",
              opt.function, static_cast<unsigned long long>(opt.records),
              opt.noise);
  std::printf("machine     : %d virtual processors, %zu B memory/processor\n",
              opt.procs, opt.memory);
  std::printf("accuracy    : %.4f  (confusion: tp=%lld fn=%lld fp=%lld "
              "tn=%lld)\n",
              confusion.accuracy(),
              static_cast<long long>(confusion.cell[0][0]),
              static_cast<long long>(confusion.cell[0][1]),
              static_cast<long long>(confusion.cell[1][0]),
              static_cast<long long>(confusion.cell[1][1]));
  std::printf("tree        : %zu nodes, %zu leaves, depth %d%s\n",
              shape.nodes, shape.leaves, shape.depth,
              opt.prune ? " (MDL-pruned)" : "");
  if (opt.classifier != "sprint") {
    std::printf("parallelism : %zu large tasks, %zu small tasks, mean "
                "survival %.3f\n",
                diag.dc.large_tasks, diag.dc.small_tasks,
                diag.mean_survival);
  }
  std::printf("modeled time: %.3f s  (compute %.3f, comm %.3f, io %.3f, "
              "balance %.3f)\n",
              report.parallel_time(), report.max_compute(),
              report.max_comm(), report.max_io(), report.balance());
  if (opt.queue_depth > 0) {
    std::printf("pipeline    : on (queue depth %zu), io hidden %.3f s over "
                "all ranks\n",
                opt.queue_depth, report.total_io_hidden());
  }

  if (!opt.save_path.empty()) {
    try {
      clouds::save_tree(tree, opt.save_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pclouds_cli: %s\n", e.what());
      return 1;
    }
    std::printf("model saved : %s\n", opt.save_path.c_str());
  }

  std::vector<std::pair<int, obs::TraceEvent>> overlay;
  if (!opt.profile_path.empty()) {
    try {
      const obs::Profile profile = obs::build_profile(*tracer, report.clocks);
      obs::write_json_file(opt.profile_path, profile.to_json().dump());
      if (!opt.trace_path.empty()) overlay = obs::overlay_events(profile);
      std::printf("profile     : %s\n%s", opt.profile_path.c_str(),
                  obs::format_profile_summary(profile).c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pclouds_cli: %s\n", e.what());
      return 1;
    }
  }
  if (!opt.trace_path.empty()) {
    try {
      obs::write_json_file(
          opt.trace_path,
          tracer->chrome_json(overlay.empty() ? nullptr : &overlay));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pclouds_cli: %s\n", e.what());
      return 1;
    }
    std::printf("trace       : %s (Chrome trace JSON; open in Perfetto%s)\n",
                opt.trace_path.c_str(),
                overlay.empty() ? "" : "; crit.* spans mark the critical path");
  }
  if (!opt.report_path.empty()) {
    obs::RunReport run;
    run.classifier = opt.classifier;
    run.nprocs = opt.procs;
    run.records = opt.records;
    run.ranks.reserve(report.clocks.size());
    for (std::size_t r = 0; r < report.clocks.size(); ++r) {
      run.ranks.push_back({report.clocks[r], rank_io[r]});
    }
    run.tree.nodes = shape.nodes;
    run.tree.leaves = shape.leaves;
    run.tree.depth = shape.depth;
    run.accuracy = confusion.accuracy();
    run.metrics = tracer->merged_metrics();
    try {
      obs::write_json_file(opt.report_path, run.to_json().dump());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pclouds_cli: %s\n", e.what());
      return 1;
    }
    std::printf("report      : %s\n", opt.report_path.c_str());
  }
  return 0;
}
