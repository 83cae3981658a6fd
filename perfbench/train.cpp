// Training workloads: pCLOUDS on p = 4 ranks over disk-resident Agrawal
// data, measured on both clocks.
//
// Untraced run (--trace 0): set up (materialize + draw the sample) a few
// times, then call the trainer for the run's seconds and report medians.
// The training call is pclouds::pclouds_train itself; its wall and CPU time
// exclude set-up, as in the paper's protocol.
//
// Traced run (--trace 1): replay what pclouds_train does with a DcProblem
// decorator around pclouds::CloudsProblem that times every call into the
// problem and every streaming pass, alternating with untraced
// pclouds_train calls so the tracing overhead is measured too.  The
// replayed tree must be byte-identical to pclouds_train's.

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "clouds/tree.hpp"
#include "common.hpp"
#include "data/dataset.hpp"
#include "dc/driver.hpp"
#include "io/local_disk.hpp"
#include "io/memory_budget.hpp"
#include "io/pipeline.hpp"
#include "io/scratch.hpp"
#include "mp/runtime.hpp"
#include "obs/mem_gauge.hpp"
#include "pclouds/pclouds.hpp"
#include "pclouds/problem.hpp"

namespace perfbench {

namespace {

using pdc::data::Record;
namespace clouds = pdc::clouds;
namespace data = pdc::data;
namespace dc = pdc::dc;
namespace io = pdc::io;
namespace mp = pdc::mp;
namespace pclouds = pdc::pclouds;

constexpr int kProcs = 4;
constexpr double kSampleRate = 0.05;
constexpr std::uint64_t kTestRecords = 100'000;
constexpr std::size_t kMaterializeBlock = 8192;
constexpr const char* kTrainFile = "train.rec";
/// Set-ups per untraced run (each takes well under a second).
constexpr int kSetupReps = 5;
/// Floor on the training calls of one run, whatever --seconds says.  A call
/// takes 5-8 s on the 4-core VM, so a median needs the run's whole budget.
constexpr int kMinReps = 3;

struct Spec {
  std::uint64_t records;
  double noise;
  /// The generator's attribute perturbation (labels stay clean).  Without
  /// it, function 2 without label noise grows trees whose size swings by
  /// 7x from seed to seed: a split that lands slightly off an exact class
  /// boundary leaves a sliver the tree chases down to the depth limit.
  /// Agrawal et al.'s standard 5% blurs the boundaries, so every seed grows
  /// a tree of about the same size.
  double perturbation;
  double accuracy_floor;
};

Spec spec_of(const std::string& workload) {
  if (workload == "train-clean") return {2'000'000, 0.0, 0.05, 0.93};
  return {500'000, 0.10, 0.0, 0.80};  // train-noisy
}

/// The paper's pCLOUDS settings: SSE, replication combiner (attribute-
/// based), memory scaled like 1 MB per 6M records, small-node threshold
/// n/1000, q_root 600 (q/n of the paper's 10,000 at 6M).  Pipeline off.
pclouds::PcloudsConfig paper_config(std::uint64_t records) {
  pclouds::PcloudsConfig cfg;
  cfg.clouds.method = clouds::SplitMethod::kSSE;
  cfg.clouds.q_root = 600;
  cfg.clouds.pipeline = io::PipelineConfig{};
  cfg.combiner = pclouds::CombineMethod::kReplicationAttribute;
  cfg.small_threshold_records = std::max<std::uint64_t>(records / 1000, 16);
  cfg.memory_bytes = io::MemoryBudget::paper_scaled(records).bytes();
  return cfg;
}

mp::Runtime make_runtime() {
  mp::Runtime rt(kProcs, mp::Machine::sp2_like());
  rt.set_lockstep(false);  // PDC_LOCKSTEP must not change what is measured
  return rt;
}

std::size_t at(const mp::Comm& comm) {
  return static_cast<std::size_t>(comm.rank());
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

struct Workload {
  Spec spec;
  data::AgrawalGenerator gen;
  data::DatasetPartition part;
  data::Sampler sampler;
  pclouds::PcloudsConfig cfg;
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  const Spec spec = spec_of(name);
  return Workload{
      spec,
      data::AgrawalGenerator(
          {.function = 2,
           .seed = seed,
           .label_noise = spec.noise,
           .perturbation = spec.perturbation}),
      data::DatasetPartition(spec.records, kProcs, 42 + seed),
      data::Sampler(kSampleRate, 17 + seed),
      paper_config(spec.records)};
}

// ----------------------------------------------------------- set-up ---

struct SetUp {
  double wall_s = 0.0;
  double materialize_s = 0.0;  ///< slowest rank's materialization
  std::vector<std::vector<Record>> samples;
};

/// Writes every rank's slice of the training set to its disk and draws
/// its part of the sample set S.
SetUp set_up(const Workload& w, const io::ScratchArena& arena) {
  SetUp s;
  s.samples.resize(kProcs);
  std::vector<double> mat(kProcs, 0.0);
  auto rt = make_runtime();
  const double t0 = now_s();
  rt.run([&](mp::Comm& comm) {
    io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                       &comm.clock());
    const double m0 = now_s();
    data::materialize_local_slice(w.gen, w.part, comm.rank(), disk,
                                  kTrainFile, kMaterializeBlock);
    mat[at(comm)] = now_s() - m0;
    s.samples[at(comm)] =
        data::draw_local_sample(w.gen, w.part, w.sampler, comm.rank());
  });
  s.wall_s = now_s() - t0;
  s.materialize_s = *std::max_element(mat.begin(), mat.end());
  return s;
}

// ------------------------------------------------------ traced replay ---

/// Host time one rank spent in each layer during a traced replay.
struct LayerTimes {
  double train_s = 0.0;  ///< the whole replay on this rank
  double stats_s = 0.0;
  double stats_scan_s = 0.0;  ///< the passes local_stats ran
  std::uint64_t stats_records = 0;
  double combine_s = 0.0;
  double decide_s = 0.0;  ///< decide() minus its harvest passes
  double harvest_s = 0.0;
  std::uint64_t harvest_records = 0;
  double partition_s = 0.0;
  std::uint64_t partition_records = 0;
  double small_solve_s = 0.0;
  double redistribute_s = -1.0;  ///< < 0: this rank solved no small task
  std::size_t root_stats_bytes = 0;

  double covered_s() const {
    return stats_s + combine_s + decide_s + harvest_s + partition_s +
           small_solve_s + std::max(0.0, redistribute_s);
  }
};

using Problem = dc::DcProblem<Record>;

/// Wraps a Scan: counts the records it delivers and times whole passes
/// (two clock reads per pass, none per record).
Problem::Scan timed_scan(const Problem::Scan& inner, double& seconds,
                         std::uint64_t& records) {
  return [&inner, &seconds, &records](
             const std::function<void(const Record&)>& fn) {
    std::uint64_t n = 0;
    const double t0 = now_s();
    inner([&](const Record& r) {
      ++n;
      fn(r);
    });
    seconds += now_s() - t0;
    records += n;
  };
}

/// DcProblem decorator that times each call into CloudsProblem.  Gaps the
/// driver spends between calls are attributed to the driver: from decide()
/// returning a router to on_split() is the partition pass, and from the
/// last large-node call to the first solve_sequential() is the small-node
/// redistribution.
class TimedProblem final : public Problem {
 public:
  TimedProblem(pclouds::CloudsProblem& inner, LayerTimes& t)
      : inner_(inner), t_(t) {}

  std::vector<std::byte> local_stats(const Scan& scan,
                                     const dc::Task& task) override {
    const double t0 = now_s();
    auto blob = inner_.local_stats(
        timed_scan(scan, t_.stats_scan_s, t_.stats_records), task);
    t_.stats_s += now_s() - t0;
    if (task.id == 0) t_.root_stats_bytes = blob.size();
    return blob;
  }

  std::vector<std::byte> combine(std::vector<std::byte> a,
                                 const std::vector<std::byte>& b) override {
    const double t0 = now_s();
    auto out = inner_.combine(std::move(a), b);
    t_.combine_s += now_s() - t0;
    return out;
  }

  std::optional<Router> decide(mp::Comm& comm,
                               const std::vector<std::byte>& stats,
                               const Scan& scan,
                               const dc::Task& task) override {
    const double t0 = now_s();
    const double h0 = t_.harvest_s;
    auto router = inner_.decide(
        comm, stats, timed_scan(scan, t_.harvest_s, t_.harvest_records),
        task);
    const double t1 = now_s();
    t_.decide_s += (t1 - t0) - (t_.harvest_s - h0);
    last_large_ = t1;
    if (!router) return router;
    decided_at_ = t1;
    return Router([route = std::move(*router),
                   n = &t_.partition_records](const Record& r) {
      ++*n;
      return route(r);
    });
  }

  void on_split(mp::Comm& comm, const dc::Task& parent, const dc::Task& left,
                const dc::Task& right) override {
    t_.partition_s += now_s() - decided_at_;
    inner_.on_split(comm, parent, left, right);
    last_large_ = now_s();
  }

  void on_leaf(mp::Comm& comm, const dc::Task& task) override {
    inner_.on_leaf(comm, task);
    last_large_ = now_s();
  }

  void solve_sequential(const dc::Task& task,
                        std::vector<Record> data) override {
    const double t0 = now_s();
    if (t_.redistribute_s < 0.0) t_.redistribute_s = t0 - last_large_;
    inner_.solve_sequential(task, std::move(data));
    t_.small_solve_s += now_s() - t0;
  }

  double sequential_cost(std::uint64_t n) const override {
    return inner_.sequential_cost(n);
  }
  std::vector<std::byte> export_subtree(const dc::Task& task) override {
    return inner_.export_subtree(task);
  }
  void absorb_subtree(const dc::Task& task,
                      std::span<const std::byte> blob) override {
    inner_.absorb_subtree(task, blob);
  }
  std::vector<std::byte> export_state() const override {
    return inner_.export_state();
  }
  void restore_state(std::span<const std::byte> blob) override {
    inner_.restore_state(blob);
  }

 private:
  pclouds::CloudsProblem& inner_;
  LayerTimes& t_;
  double decided_at_ = 0.0;
  double last_large_ = 0.0;
};

/// Wire header for one small-node subtree (as in pclouds_train).
struct SubtreeHdr {
  std::int64_t task_id;
  std::uint64_t node_count;
};

/// Every rank broadcasts the subtrees it built in the small-node phase and
/// grafts all of them in task-id order, as pclouds_train does.
void assemble_small_subtrees(mp::Comm& comm, pclouds::CloudsProblem& problem) {
  std::vector<SubtreeHdr> headers;
  std::vector<clouds::TreeNode> payload;
  for (const auto& [task_id, nodes] : problem.small_subtrees()) {
    headers.push_back({task_id, nodes.size()});
    payload.insert(payload.end(), nodes.begin(), nodes.end());
  }
  const auto all_headers = comm.all_to_all_broadcast<SubtreeHdr>(headers);
  const auto all_payloads =
      comm.all_to_all_broadcast<clouds::TreeNode>(payload);
  struct Graft {
    std::int64_t task_id;
    std::vector<clouds::TreeNode> nodes;
  };
  std::vector<Graft> grafts;
  for (std::size_t r = 0; r < all_headers.size(); ++r) {
    std::size_t off = 0;
    const auto& nodes = all_payloads[r];
    for (const auto& hdr : all_headers[r]) {
      grafts.push_back(
          {hdr.task_id,
           {nodes.begin() + static_cast<std::ptrdiff_t>(off),
            nodes.begin() +
                static_cast<std::ptrdiff_t>(off + hdr.node_count)}});
      off += hdr.node_count;
    }
  }
  std::sort(grafts.begin(), grafts.end(), [](const Graft& a, const Graft& b) {
    return a.task_id < b.task_id;
  });
  for (const auto& g : grafts) {
    problem.tree().graft(problem.tree_node_of(g.task_id), g.nodes);
  }
}

struct RankOut {
  std::uint64_t digest = 0;
  io::IoStats io;
  dc::DcReport dc;
  std::uint64_t alive_points = 0;
  LayerTimes layers;
};

/// pclouds_train's body with the DcProblem decorated by TimedProblem.
clouds::DecisionTree replay_train(mp::Comm& comm,
                                  const pclouds::PcloudsConfig& cfg,
                                  io::LocalDisk& disk,
                                  std::span<const Record> local_sample,
                                  RankOut& out) {
  const double t0 = now_s();
  const std::uint64_t root_records = comm.all_reduce<std::uint64_t>(
      disk.file_records<Record>(kTrainFile));
  auto full_sample = comm.all_gather<Record>(local_sample);
  pdc::obs::MemGauge mem_gauge(comm.tracer());
  clouds::CostHooks hooks{&comm.clock(), comm.cost().machine(),
                          comm.tracer(), &mem_gauge};
  pclouds::CloudsProblem problem(cfg, root_records, std::move(full_sample),
                                 hooks, &disk);
  TimedProblem timed(problem, out.layers);

  dc::DcConfig dcfg;
  dcfg.strategy = cfg.strategy;
  dcfg.small_threshold = cfg.derived_small_threshold(root_records);
  dcfg.memory_bytes = cfg.memory_bytes;
  dcfg.pipeline = cfg.clouds.pipeline;
  dc::DcDriver<Record> driver(dcfg, disk);
  out.dc = driver.run(comm, timed, kTrainFile);
  assemble_small_subtrees(comm, problem);
  out.alive_points = problem.diag().alive_points_shipped;
  out.layers.train_s = now_s() - t0;
  return std::move(problem.tree());
}

// ------------------------------------------------------ training call ---

struct TrainRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  mp::SpmdReport report;
  std::vector<clouds::TreeNode> tree_bytes;  ///< rank 0, serialized
  clouds::DecisionTree tree;                 ///< rank 0
  std::vector<RankOut> ranks;

  io::IoStats io() const {
    io::IoStats s;
    for (const auto& r : ranks) s += r.io;
    return s;
  }
};

TrainRun train_once(const Workload& w, const io::ScratchArena& arena,
                    const SetUp& setup, bool traced) {
  TrainRun run;
  run.ranks.resize(kProcs);
  std::mutex mu;
  auto rt = make_runtime();
  const double c0 = process_cpu_s();
  const double t0 = now_s();
  run.report = rt.run([&](mp::Comm& comm) {
    io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                       &comm.clock());
    RankOut& out = run.ranks[at(comm)];
    const auto& sample = setup.samples[at(comm)];
    clouds::DecisionTree tree;
    if (traced) {
      tree = replay_train(comm, w.cfg, disk, sample, out);
    } else {
      pclouds::PcloudsDiag diag;
      tree = pclouds::pclouds_train(comm, w.cfg, disk, kTrainFile, sample,
                                    &diag);
      out.dc = diag.dc;
      out.alive_points = diag.alive_points_shipped;
    }
    out.io = disk.stats();
    const auto bytes = tree.serialize();
    out.digest = fnv1a(bytes.data(), bytes.size() * sizeof(clouds::TreeNode));
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      run.tree_bytes = bytes;
      run.tree = std::move(tree);
    }
  });
  run.wall_s = now_s() - t0;
  run.cpu_s = process_cpu_s() - c0;
  return run;
}

/// The deterministic outputs of one training call: pinned for the default
/// seed, and required to repeat exactly within a run.
pdc::obs::Json pins_of(const TrainRun& run, double accuracy) {
  auto num = [](double v) { return pdc::obs::Json::make_number(v); };
  const auto io = run.io();
  std::uint64_t redistributed = 0;
  for (const auto& r : run.ranks) redistributed += r.dc.records_redistributed;
  pdc::obs::Json p = pdc::obs::Json::make_object();
  p.set("model_time_s", num(run.report.parallel_time()));
  p.set("tree_digest",
        pdc::obs::Json::make_string(hex64(run.ranks[0].digest)));
  p.set("accuracy", num(accuracy));
  p.set("io.bytes_read", num(static_cast<double>(io.bytes_read)));
  p.set("io.bytes_written", num(static_cast<double>(io.bytes_written)));
  p.set("io.ops", num(static_cast<double>(io.total_ops())));
  p.set("dc.large_tasks",
        num(static_cast<double>(run.ranks[0].dc.large_tasks)));
  p.set("dc.small_tasks",
        num(static_cast<double>(run.ranks[0].dc.small_tasks)));
  p.set("dc.records_redistributed", num(static_cast<double>(redistributed)));
  return p;
}

/// Checks shared by every training call; returns the call's pins.
pdc::obs::Json check_run(const TrainRun& run, const Workload& w,
                         const std::vector<Record>& test,
                         const std::optional<std::string>& first_pins,
                         Result& out) {
  bool agree = true;
  for (const auto& r : run.ranks) {
    agree = agree && r.digest == run.ranks[0].digest;
  }
  out.check(agree, "every rank returns the same tree");
  const double acc = run.tree.accuracy(test);
  out.check(acc >= w.spec.accuracy_floor,
            "accuracy " + std::to_string(acc) + " below the floor " +
                std::to_string(w.spec.accuracy_floor));
  auto pins = pins_of(run, acc);
  if (first_pins) {
    out.check(pins.dump() == *first_pins,
              "repetitions disagree: " + pins.dump() + " vs " + *first_pins);
  }
  return pins;
}

/// io.scan_ns_per_record: one BlockReader pass per rank over its root
/// file with a consumer that does nothing (median of `passes`).
double scan_ns_per_record(const Workload& w, const io::ScratchArena& arena,
                          int passes) {
  std::vector<double> per_pass;
  std::mutex mu;
  auto rt = make_runtime();
  const std::size_t block =
      io::MemoryBudget(w.cfg.memory_bytes).block_records(sizeof(Record), 3);
  rt.run([&](mp::Comm& comm) {
    io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                       &comm.clock());
    for (int i = 0; i < passes; ++i) {
      io::BlockReader<Record> reader(disk, kTrainFile, block,
                                     w.cfg.clouds.pipeline);
      std::vector<Record> buf;
      std::uint64_t n = 0;
      const double t0 = now_s();
      while (reader.next_block(buf)) n += buf.size();
      const double dt = now_s() - t0;
      std::lock_guard lock(mu);
      per_pass.push_back(dt * 1e9 /
                         static_cast<double>(std::max<std::uint64_t>(1, n)));
    }
  });
  return median(per_pass);
}

/// mp.collective_us: one all_to_all_broadcast of a node-stats-sized blob
/// at p = 4, timed on rank 0 (median of `calls`).
double collective_us(std::size_t blob_bytes, int calls) {
  std::vector<double> us;
  auto rt = make_runtime();
  rt.run([&](mp::Comm& comm) {
    const std::vector<std::byte> blob(blob_bytes, std::byte{1});
    for (int i = 0; i < calls; ++i) {
      comm.barrier();
      const double t0 = now_s();
      const auto all = comm.all_to_all_broadcast<std::byte>(blob);
      const double dt = now_s() - t0;
      if (comm.rank() == 0 && all.size() == kProcs) us.push_back(dt * 1e6);
    }
  });
  return median(us);
}

}  // namespace

int run_train(const Options& opt, Result& out) {
  const Workload w = make_workload(opt.workload, opt.seed);
  const io::ScratchArena arena(opt.work_dir / "disks", kProcs,
                               io::ScratchArena::Persist{});
  const auto test =
      data::make_test_set(w.gen, w.spec.records, kTestRecords);
  std::optional<std::string> first_pins;
  pdc::obs::Json pins;

  if (!opt.trace) {
    // pclouds_train leaves the root file in place, so every training call
    // of the run reads the last set-up's files.  The run's seconds are
    // spent on training calls only: they start after the set-ups.
    std::vector<double> setup_s, wall_s, cpu_s;
    SetUp s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      s = set_up(w, arena);
      setup_s.push_back(s.wall_s);
    }
    const double deadline = now_s() + opt.seconds;
    TrainRun last;
    for (int rep = 0; rep < kMinReps || now_s() < deadline; ++rep) {
      last = train_once(w, arena, s, false);
      out.count_ops(1, 0);
      wall_s.push_back(last.wall_s);
      cpu_s.push_back(last.cpu_s);
      pins = check_run(last, w, test, first_pins, out);
      if (!first_pins) first_pins = pins.dump();
    }
    const double n = static_cast<double>(w.spec.records);
    out.metric("setup_s", median(setup_s), "s");
    out.metric("records_per_s", n / median(wall_s), "1/s");
    out.metric("cpu_ns_per_record", median(cpu_s) * 1e9 / n, "ns");
    out.metric("latency_p50_ms", median(wall_s) * 1e3, "ms");
    out.metric("model_time_s", last.report.parallel_time(), "model_s");
    out.metric("accuracy", pins.at("accuracy").as_number(), "fraction");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.note("repetitions", pdc::obs::Json::make_number(
                                static_cast<double>(wall_s.size())));
    out.note("pins", pins);
    return 0;
  }

  // Traced run: one set-up, then alternate untraced pclouds_train and the
  // traced replay so both see the same page cache and host load.
  const SetUp s = set_up(w, arena);
  const double deadline = now_s() + opt.seconds;
  std::vector<double> plain_cpu_s, traced_cpu_s;
  std::vector<TrainRun> replays;
  for (int rep = 0; rep < 1 || now_s() < deadline - 0.25 * opt.seconds;
       ++rep) {
    TrainRun plain = train_once(w, arena, s, false);
    out.count_ops(1, 0);
    pins = check_run(plain, w, test, first_pins, out);
    if (!first_pins) first_pins = pins.dump();
    plain_cpu_s.push_back(plain.cpu_s);

    TrainRun replay = train_once(w, arena, s, true);
    out.count_ops(1, 0);
    check_run(replay, w, test, first_pins, out);
    out.check(replay.tree_bytes.size() == plain.tree_bytes.size() &&
                  std::memcmp(replay.tree_bytes.data(),
                              plain.tree_bytes.data(),
                              plain.tree_bytes.size() *
                                  sizeof(clouds::TreeNode)) == 0,
              "the traced replay's tree is byte-identical to pclouds_train's");
    traced_cpu_s.push_back(replay.cpu_s);
    replays.push_back(std::move(replay));
  }
  // The replay whose wall time is the median stands for the run.
  std::sort(replays.begin(), replays.end(),
            [](const TrainRun& a, const TrainRun& b) {
              return a.wall_s < b.wall_s;
            });
  const TrainRun& rep = replays[replays.size() / 2];

  auto mean_of = [&](auto field) {
    std::vector<double> v;
    for (const auto& r : rep.ranks) v.push_back(field(r.layers));
    return mean(v);
  };
  auto sum_of = [&](auto field) {
    double total = 0.0;
    for (const auto& r : rep.ranks) {
      total += static_cast<double>(field(r.layers));
    }
    return total;
  };
  auto ns_per = [&](auto secs, auto recs) {
    const double n = sum_of(recs);
    return n > 0.0 ? sum_of(secs) * 1e9 / n : 0.0;
  };
  using L = const LayerTimes&;
  std::vector<double> redistribute;
  std::uint64_t alive = 0;
  for (const auto& r : rep.ranks) {
    if (r.layers.redistribute_s >= 0.0) {
      redistribute.push_back(r.layers.redistribute_s);
    }
    alive += r.alive_points;
  }
  const double harvested = sum_of([](L l) { return l.harvest_records; });

  out.metric("data.materialize_s", s.materialize_s, "s");
  // The replay's counts equal pclouds_train's (checked above).
  const std::pair<const char*, const char*> counts[] = {
      {"io.bytes_read", "bytes"},   {"io.bytes_written", "bytes"},
      {"io.ops", "count"},          {"dc.large_tasks", "count"},
      {"dc.small_tasks", "count"},  {"dc.records_redistributed", "count"}};
  for (const auto& [name, unit] : counts) {
    out.metric(name, pins.at(name).as_number(), unit);
  }
  out.metric("io.scan_ns_per_record", scan_ns_per_record(w, arena, 3), "ns");
  out.metric("mp.collective_us",
             collective_us(rep.ranks[0].layers.root_stats_bytes, 200), "us");
  out.metric("model.compute_s", rep.report.max_compute(), "model_s");
  out.metric("model.comm_s", rep.report.max_comm(), "model_s");
  out.metric("model.io_s", rep.report.max_io(), "model_s");
  out.metric("model.idle_s", rep.report.max_idle(), "model_s");
  out.metric("clouds.stats_s", mean_of([](L l) { return l.stats_s; }), "s");
  out.metric("clouds.stats_ns_per_record",
             ns_per([](L l) { return l.stats_scan_s; },
                    [](L l) { return l.stats_records; }),
             "ns");
  out.metric("clouds.small_solve_s",
             mean_of([](L l) { return l.small_solve_s; }), "s");
  out.metric("dc.redistribute_s", mean(redistribute), "s");
  out.metric("pclouds.harvest_s", mean_of([](L l) { return l.harvest_s; }),
             "s");
  out.metric("pclouds.harvest_ns_per_record",
             ns_per([](L l) { return l.harvest_s; },
                    [](L l) { return l.harvest_records; }),
             "ns");
  out.metric("pclouds.decide_s", mean_of([](L l) { return l.decide_s; }),
             "s");
  // Alive intervals of one attribute are disjoint, so each harvested record
  // yields at most one alive point per numeric attribute.
  out.metric("pclouds.survival",
             harvested > 0.0 ? static_cast<double>(alive) /
                                   (harvested * data::kNumNumeric)
                             : 0.0,
             "fraction");
  out.metric("dc.partition_s", mean_of([](L l) { return l.partition_s; }),
             "s");
  out.metric("dc.partition_ns_per_record",
             ns_per([](L l) { return l.partition_s; },
                    [](L l) { return l.partition_records; }),
             "ns");
  out.metric("dc.combine_s", mean_of([](L l) { return l.combine_s; }), "s");
  // On process CPU time: the tracing cost is a few clock reads per call,
  // which the host's swings in wall time would drown.
  out.metric("trace.overhead",
             median(traced_cpu_s) / median(plain_cpu_s) - 1.0, "fraction");
  out.metric("trace.uncovered_share",
             mean_of([](L l) { return 1.0 - l.covered_s() / l.train_s; }),
             "fraction");
  out.note("repetitions", pdc::obs::Json::make_number(
                              static_cast<double>(plain_cpu_s.size())));
  out.note("pins", pins);
  return 0;
}

}  // namespace perfbench
