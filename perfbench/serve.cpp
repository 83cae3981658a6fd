// Serve workload: a deep tree trained in-core during set-up, compiled, and
// served by pdc::serve::Server with 3 replicas from one generator thread
// (4 threads in all).
//
//   closed loop  window 2r outstanding batches; gives the saturation
//                throughput.
//   open loop    one batch every kBatch / kOfferedRecordsPerS seconds,
//                whatever the server does; each request's latency runs
//                from the moment it was due, so a stalled generator or a
//                full queue shows up in the latency of later requests.
//
// Every served label is compared with CompiledTree::predict for that
// record, and every replica's version audit must stay monotonic (the
// closed loop republishes the model every kSwapEvery requests).

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "clouds/builder.hpp"
#include "common.hpp"
#include "data/agrawal.hpp"
#include "data/partition.hpp"
#include "mp/clock.hpp"
#include "mp/machine.hpp"
#include "serve/compiled_tree.hpp"
#include "serve/record_block.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

namespace clouds = pdc::clouds;
namespace data = pdc::data;
namespace serve = pdc::serve;

constexpr std::uint64_t kTrainRecords = 500'000;
/// The deployed model's training records are the same for every seed; the
/// seed draws the sample set S its boundaries come from, the request stream
/// and the held-out records.  Trees grown from other training records
/// differ by +-8% in node count and by 40% in modeled build time, which
/// would swamp a change in serving cost.
constexpr std::uint64_t kModelDataSeed = 1;
constexpr double kSampleRate = 0.05;
/// Requests are the seed's records from this index on, past the training
/// and held-out ranges.
constexpr std::uint64_t kTrafficBegin = 10'000'000;
constexpr double kNoise = 0.10;
constexpr std::uint64_t kTestRecords = 100'000;
constexpr double kAccuracyFloor = 0.78;
constexpr int kReplicas = 3;
constexpr std::size_t kBatch = 1024;
constexpr std::size_t kPoolBlocks = 64;
constexpr std::size_t kQueueCapacity = 64;
constexpr std::size_t kSwapEvery = 4096;
/// Each set-up trains for 12-17 s on the 4-core VM, so a run sets up twice.
constexpr int kSetupReps = 2;
/// Both loops report medians over windows of this length, so a burst of
/// interference from other tenants of the host moves one window, not the
/// run's figure.
constexpr double kWindowS = 1.0;
/// Untraced/traced closed-loop pairs of a traced run.
constexpr int kOverheadPairs = 5;
/// The open loop's offered rate, fixed so that a faster or slower server
/// shows as lower or higher latency at the same load.  On the 4-core Xeon
/// VM this was chosen on (gcc 12, Release), the closed-loop saturation
/// swung between 9.8M and 24M records/s with the load of the VM's
/// neighbours; the rate is about half the low end, so the open loop never
/// turns into a growing backlog.
constexpr double kOfferedRecordsPerS = 4.0e6;

struct Model {
  clouds::DecisionTree tree;
  serve::CompiledTree compiled;
  double model_time_s = 0.0;
  double compile_s = 0.0;
  std::vector<serve::RecordBlock> pool;
  std::vector<std::vector<std::int8_t>> expected;  ///< predict() per row
};

/// Trains the tree in-core, compiles it and builds the request payload pool
/// with the label every served row must get.
Model set_up(std::uint64_t seed) {
  Model m;
  data::AgrawalGenerator gen(
      {.function = 2, .seed = kModelDataSeed, .label_noise = kNoise});
  const auto train = gen.make_range(0, kTrainRecords);
  const data::Sampler sampler(kSampleRate, seed);
  std::vector<data::Record> sample;
  for (std::uint64_t i = 0; i < kTrainRecords; ++i) {
    if (sampler.contains(i)) sample.push_back(train[i]);
  }
  clouds::CloudsConfig ccfg;
  ccfg.purity_stop = 0.999;
  ccfg.max_depth = 40;
  pdc::mp::Clock clock;
  m.tree = clouds::CloudsBuilder{ccfg, {&clock, pdc::mp::Machine::sp2_like()}}
               .build(train, sample);
  m.model_time_s = clock.total();
  const double c0 = now_s();
  m.compiled = serve::CompiledTree::compile(m.tree);
  m.compile_s = now_s() - c0;

  data::AgrawalGenerator traffic({.function = 2, .seed = seed});
  for (std::size_t b = 0; b < kPoolBlocks; ++b) {
    const auto recs = traffic.make_range(kTrafficBegin + b * kBatch,
                                         kTrafficBegin + (b + 1) * kBatch);
    std::vector<std::int8_t> labels;
    labels.reserve(recs.size());
    for (const auto& r : recs) labels.push_back(m.compiled.predict(r));
    m.pool.push_back(serve::RecordBlock::from_records(recs));
    m.expected.push_back(std::move(labels));
  }
  return m;
}

struct Phase {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t records = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double submit_s = 0.0;  ///< traced: time inside Server::submit
  double wait_s = 0.0;    ///< traced: time blocked on responses
  /// Closed loop: throughput and CPU per record of each kWindowS window.
  std::vector<double> window_rps;
  std::vector<double> window_cpu_ns;
  /// Open loop: latencies from the due time, by the window they were due in.
  std::vector<std::vector<double>> window_latency_ms;
  std::vector<double> late_ms;  ///< open loop: generator lateness
  std::vector<double> queue_wait_us;
  serve::ServerStats stats;

  /// Median of the closed loop's window throughputs (the whole loop's when
  /// it was shorter than one window).
  double records_per_s() const {
    return window_rps.empty() ? static_cast<double>(records) / wall_s
                              : median(window_rps);
  }
  double cpu_ns_per_record() const {
    return window_cpu_ns.empty()
               ? cpu_s * 1e9 /
                     static_cast<double>(std::max<std::uint64_t>(1, records))
               : median(window_cpu_ns);
  }

  /// Median over the open loop's windows of each window's latency quantile.
  double latency_ms(double q) const {
    std::vector<double> per_window;
    for (const auto& w : window_latency_ms) {
      if (!w.empty()) per_window.push_back(quantile(w, q));
    }
    return median(per_window);
  }

  pdc::obs::Json to_json() const {
    auto num = [](double v) { return pdc::obs::Json::make_number(v); };
    pdc::obs::Json j = pdc::obs::Json::make_object();
    j.set("sent", num(static_cast<double>(sent)));
    j.set("succeeded", num(static_cast<double>(succeeded)));
    j.set("failed", num(static_cast<double>(failed)));
    j.set("wall_s", num(wall_s));
    return j;
  }
};

struct InFlight {
  std::future<serve::BatchResult> fut;
  std::size_t block = 0;
  double sent_at = 0.0;
  double due = 0.0;
  std::size_t window = 0;
};

/// Collects one response and checks every label against predict().
void collect(InFlight& f, const Model& m, Phase& ph,
             const std::vector<double>* service_us) {
  try {
    const serve::BatchResult res = f.fut.get();
    const auto& want = m.expected[f.block];
    if (res.labels.size() != want.size() ||
        std::memcmp(res.labels.data(), want.data(), want.size()) != 0) {
      ++ph.failed;
      std::cerr << "perfbench: served labels differ from "
                   "CompiledTree::predict (block "
                << f.block << ")\n";
      return;
    }
    ++ph.succeeded;
    ph.records += res.labels.size();
    if (f.due > 0.0) {
      ph.window_latency_ms[f.window].push_back((f.sent_at - f.due) * 1e3 +
                                               res.latency_us * 1e-3);
      if (service_us) {
        ph.queue_wait_us.push_back(res.latency_us - (*service_us)[f.block]);
      }
    }
  } catch (const std::exception& e) {
    ++ph.failed;
    std::cerr << "perfbench: request failed: " << e.what() << "\n";
  }
}

/// Closed loop: keep `window` batches outstanding for `seconds`.
Phase closed_loop(const Model& m, double seconds, bool traced) {
  Phase ph;
  serve::Server server(m.compiled, {.replicas = kReplicas,
                                    .queue_capacity = kQueueCapacity});
  const std::size_t window = 2 * static_cast<std::size_t>(kReplicas);
  std::deque<InFlight> out;
  const double c0 = process_cpu_s();
  const double t0 = now_s();
  const double end = t0 + seconds;
  double mark = t0;
  double mark_cpu = c0;
  std::uint64_t mark_records = 0;
  auto drain_one = [&] {
    const double w0 = traced ? now_s() : 0.0;
    collect(out.front(), m, ph, nullptr);
    if (traced) ph.wait_s += now_s() - w0;
    out.pop_front();
  };
  for (std::size_t i = 0; now_s() < end; ++i) {
    InFlight f;
    f.block = i % kPoolBlocks;
    ++ph.sent;
    try {
      const double s0 = traced ? now_s() : 0.0;
      f.fut = server.submit(m.pool[f.block]);
      if (traced) ph.submit_s += now_s() - s0;
      out.push_back(std::move(f));
    } catch (const std::exception& e) {
      ++ph.failed;
      std::cerr << "perfbench: submit refused: " << e.what() << "\n";
    }
    if ((i + 1) % kSwapEvery == 0) server.hot_swap(m.compiled);
    while (out.size() >= window) drain_one();
    if (const double t = now_s(); t >= mark + kWindowS) {
      const double cpu = process_cpu_s();
      const auto n = static_cast<double>(ph.records - mark_records);
      ph.window_rps.push_back(n / (t - mark));
      ph.window_cpu_ns.push_back(n > 0.0 ? (cpu - mark_cpu) * 1e9 / n : 0.0);
      mark = t;
      mark_cpu = cpu;
      mark_records = ph.records;
    }
  }
  while (!out.empty()) drain_one();
  ph.wall_s = now_s() - t0;
  ph.cpu_s = process_cpu_s() - c0;
  server.shutdown();
  ph.stats = server.stats();
  return ph;
}

/// Open loop: one batch every kBatch / kOfferedRecordsPerS seconds.
Phase open_loop(const Model& m, double seconds,
                const std::vector<double>* service_us) {
  Phase ph;
  serve::Server server(m.compiled, {.replicas = kReplicas,
                                    .queue_capacity = kQueueCapacity});
  const double interval = static_cast<double>(kBatch) / kOfferedRecordsPerS;
  const auto requests = static_cast<std::size_t>(seconds / interval);
  ph.window_latency_ms.resize(static_cast<std::size_t>(seconds / kWindowS) + 1);
  std::deque<InFlight> out;
  const double t0 = now_s() + 1e-3;
  for (std::size_t i = 0; i < requests; ++i) {
    InFlight f;
    f.block = i % kPoolBlocks;
    f.due = t0 + static_cast<double>(i) * interval;
    f.window = static_cast<std::size_t>((f.due - t0) / kWindowS);
    wait_until(f.due);
    f.sent_at = now_s();
    ph.late_ms.push_back((f.sent_at - f.due) * 1e3);
    ++ph.sent;
    try {
      f.fut = server.submit(m.pool[f.block]);
      out.push_back(std::move(f));
    } catch (const std::exception& e) {
      ++ph.failed;
      std::cerr << "perfbench: submit refused: " << e.what() << "\n";
    }
    while (!out.empty() && out.front().fut.wait_for(std::chrono::seconds(0)) ==
                               std::future_status::ready) {
      collect(out.front(), m, ph, service_us);
      out.pop_front();
    }
  }
  while (!out.empty()) {
    collect(out.front(), m, ph, service_us);
    out.pop_front();
  }
  ph.wall_s = now_s() - t0;
  server.shutdown();
  ph.stats = server.stats();
  return ph;
}

/// Single-thread CompiledTree::predict_block time per pool block (median
/// over passes), in microseconds.
std::vector<double> service_times_us(const Model& m, double seconds) {
  std::vector<std::vector<double>> per_block(kPoolBlocks);
  std::vector<std::int8_t> labels(kBatch);
  const double end = now_s() + seconds;
  do {
    for (std::size_t b = 0; b < kPoolBlocks; ++b) {
      const double t0 = now_s();
      m.compiled.predict_block(m.pool[b], labels);
      per_block[b].push_back((now_s() - t0) * 1e6);
    }
  } while (now_s() < end);
  std::vector<double> out;
  for (auto& v : per_block) out.push_back(median(std::move(v)));
  return out;
}

void check_phase(const Phase& ph, const char* name, Result& out) {
  out.count_ops(ph.sent, ph.failed);
  bool monotonic = true;
  for (const auto& r : ph.stats.replicas) {
    monotonic = monotonic && r.version_monotonic;
  }
  out.check(monotonic,
            std::string(name) +
                ": every replica's model versions only move forward");
  out.check(ph.failed == 0 && ph.succeeded == ph.sent,
            std::string(name) + ": every request answered correctly");
}

}  // namespace

int run_serve(const Options& opt, Result& out) {
  // The untraced run sets up kSetupReps times for setup_s; the traced run
  // needs only compile_s, so it sets up once and re-times the compile.
  std::vector<double> setup_s, compile_s;
  Model m;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (opt.trace && rep > 0) {
      const double t0 = now_s();
      const auto again = serve::CompiledTree::compile(m.tree);
      compile_s.push_back(now_s() - t0);
      out.check(again == m.compiled,
                "compiling the same tree is deterministic");
      continue;
    }
    const double t0 = now_s();
    m = set_up(opt.seed);
    setup_s.push_back(now_s() - t0);
    compile_s.push_back(m.compile_s);
  }
  data::AgrawalGenerator test_gen(
      {.function = 2, .seed = opt.seed, .label_noise = kNoise});
  const auto test =
      test_gen.make_range(kTrainRecords, kTrainRecords + kTestRecords);
  const double accuracy = m.tree.accuracy(test);
  out.check(accuracy >= kAccuracyFloor,
            "accuracy " + std::to_string(accuracy) + " below the floor");
  auto num = [](double v) { return pdc::obs::Json::make_number(v); };
  out.note("model_nodes", num(static_cast<double>(m.compiled.node_count())));
  out.note("model_depth", num(m.compiled.depth()));

  if (!opt.trace) {
    const Phase closed = closed_loop(m, 0.5 * opt.seconds, false);
    check_phase(closed, "closed loop", out);
    const Phase open = open_loop(m, 0.5 * opt.seconds, nullptr);
    check_phase(open, "open loop", out);
    out.metric("setup_s", median(setup_s), "s");
    out.metric("records_per_s", closed.records_per_s(), "1/s");
    out.metric("cpu_ns_per_record", closed.cpu_ns_per_record(), "ns");
    out.metric("latency_p50_ms", open.latency_ms(0.50), "ms");
    out.metric("model_time_s", m.model_time_s, "model_s");
    out.metric("accuracy", accuracy, "fraction");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.note("closed_loop", closed.to_json());
    out.note("open_loop", open.to_json());
    out.note("offered_records_per_s", num(kOfferedRecordsPerS));
    out.note("latency_p99_ms", num(open.latency_ms(0.99)));
    out.note("gen_late_p99_ms", num(quantile(open.late_ms, 0.99)));
    return 0;
  }

  // Traced run: kOverheadPairs pairs of short untraced and traced closed
  // loops, alternating which of the two runs first so that a drift in host
  // load falls on both sides; the median over the pairs of their ratio of
  // CPU time per record is the tracing overhead.  Then the traced open loop.
  const auto service_us = service_times_us(m, 0.1 * opt.seconds);
  const double loop_s = 0.4 * opt.seconds / (2 * kOverheadPairs);
  auto cpu_per_record = [](const Phase& ph) {
    return ph.cpu_s /
           static_cast<double>(std::max<std::uint64_t>(1, ph.records));
  };
  std::vector<double> overhead;
  Phase closed;  // the traced closed loops, summed
  for (int i = 0; i < kOverheadPairs; ++i) {
    const bool plain_first = i % 2 == 0;
    const Phase first = closed_loop(m, loop_s, !plain_first);
    const Phase second = closed_loop(m, loop_s, plain_first);
    const Phase& plain = plain_first ? first : second;
    const Phase& traced = plain_first ? second : first;
    check_phase(plain, "closed loop", out);
    check_phase(traced, "traced closed loop", out);
    overhead.push_back(cpu_per_record(traced) / cpu_per_record(plain) - 1.0);
    closed.sent += traced.sent;
    closed.succeeded += traced.succeeded;
    closed.failed += traced.failed;
    closed.wall_s += traced.wall_s;
    closed.submit_s += traced.submit_s;
    closed.wait_s += traced.wait_s;
  }
  const Phase open = open_loop(m, 0.4 * opt.seconds, &service_us);
  check_phase(open, "open loop", out);

  double total_service = 0.0;
  for (double us : service_us) total_service += us;
  std::uint64_t max_batches = 0;
  double sum_batches = 0.0;
  for (const auto& r : open.stats.replicas) {
    max_batches = std::max(max_batches, r.batches);
    sum_batches += static_cast<double>(r.batches);
  }

  out.metric("serve.compile_s", median(compile_s), "s");
  out.metric("serve.predict_ns_per_record",
             total_service * 1e3 / static_cast<double>(kPoolBlocks * kBatch),
             "ns");
  out.metric("serve.submit_us",
             closed.submit_s * 1e6 / static_cast<double>(closed.sent), "us");
  out.metric("serve.queue_wait_us", quantile(open.queue_wait_us, 0.99), "us");
  out.metric("serve.queue_highwater",
             static_cast<double>(open.stats.queue_highwater), "count");
  out.metric("serve.replica_skew",
             sum_batches > 0.0
                 ? static_cast<double>(max_batches) * kReplicas / sum_batches
                 : 0.0,
             "ratio");
  out.metric("serve.gen_late_ms", quantile(open.late_ms, 0.99), "ms");
  out.metric("serve.latency_p99_ms", open.latency_ms(0.99), "ms");
  // On CPU time per record: the loops' wall-clock throughputs differ by
  // more from host load than from a few clock reads per request.
  out.metric("trace.overhead", median(overhead), "fraction");
  out.metric("trace.uncovered_share",
             1.0 - (closed.submit_s + closed.wait_s) / closed.wall_s,
             "fraction");
  out.note("closed_loop", closed.to_json());
  out.note("open_loop", open.to_json());
  return 0;
}

}  // namespace perfbench
