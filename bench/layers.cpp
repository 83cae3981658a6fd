// Per-kernel host cost of the training path, in ns/record.
//
// BM_NodeStatsAdd times NodeStats::add — the paper's "evaluation of
// interval boundaries" kernel, run for every record of a large node at the
// root and again for both children inside every partitioning pass — over
// pre-generated Agrawal records (function 2, 5% attribute perturbation, as
// in the train-clean workload) at q = 10, 100 and 600 intervals per numeric
// attribute.  The boundaries come from a 5% sample of the same records, as
// a node's do; the `bounds` counter is their total over the six lanes.
// items_per_second is records binned per second.
//
// BM_BlockRead and BM_BlockWrite stream the same records through
// io::BlockReader / io::BlockWriter at queue depth 0 -- one synchronous disk
// request per block, the path every training scan and partition pass takes
// -- on a LocalDisk in a scratch directory, with blocks of 1040 and 4161
// records: the training streams' block size, MemoryBudget::paper_scaled(n)
// .block_records(sizeof(Record), 3), at n = 500k and 2M.  They stream task
// files (pages of the disk's scratch file), as every partition pass and
// every scan below the root does; BM_BlockRead/1040/0 reads a kept file,
// as the root scan reads the dataset.  items_per_second is records
// streamed per second.  Each write pass writes a new name and then removes
// the previous pass's file, as a partition step does.
//
// BM_TaskFiles times a partition step's file lifecycle at queue depth 0:
// N records (the argument, 1040 or 4161) split between two BlockWriters
// into new task files, both closed, then the previous step's pair
// removed.  Each side gets one block request, so the step is mostly the
// two creates and the two removes.  It runs a fixed 4,000 steps (8,000
// files through one disk).  items_per_second is records per second;
// `files` counts files written.
// BM_ScanAlive times clouds::scan_alive, SSE's alive harvest, over records
// drawn as in the train-noisy workload (function 2, 10% label noise), with
// alive lists of 1, 10, 100 and 1,000 intervals spread evenly over the
// q = 600 histograms of all six numeric attributes.  BM_SortByValue times
// clouds::sort_by_value on sizes measured in untraced seed-1 runs of
// perfbench: n = 25, the median direct_split column and node sample of
// train-noisy (below the insertion cutoff); 276, its median alive-interval
// sort; 809, the size at or below which half its alive points are sorted;
// and 13,234, the same point-weighted median for train-clean's node
// samples.  An alive interval's points (second argument 1) are windows of
// n consecutive salary values, each in record order as a harvest hands
// them to evaluate_alive_interval; a column or sample (0) is the salaries
// of n random records.  Both report ns_per_record / ns_per_point, CPU time
// divided by the items processed.
//
// CI runs the binary as
//
//   ./build/bench/layers --benchmark_min_time=0.2
//       --benchmark_repetitions=3 --benchmark_report_aggregates_only=true
//       --benchmark_out=bench_layers.json --benchmark_out_format=json
//
// so every row carries a median and its spread over three repetitions.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "clouds/splitters.hpp"
#include "data/agrawal.hpp"
#include "io/local_disk.hpp"
#include "io/pipeline.hpp"
#include "io/scratch.hpp"
#include "mp/clock.hpp"
#include "mp/cost_model.hpp"
#include "mp/machine.hpp"

namespace {

using pdc::clouds::AliveInterval;
using pdc::clouds::AlivePoint;
using pdc::clouds::NodeStats;
using pdc::data::Record;

constexpr std::size_t kRecords = std::size_t{1} << 16;
constexpr std::size_t kSampleStride = 20;  // a 5% sample

const std::vector<Record>& records() {
  static const auto recs = [] {
    pdc::data::AgrawalGenerator gen(
        {.function = 2, .seed = 1, .perturbation = 0.05});
    return gen.make_range(0, kRecords);
  }();
  return recs;
}

/// Records as the train-noisy workload draws them.
const std::vector<Record>& noisy_records() {
  static const auto recs = [] {
    pdc::data::AgrawalGenerator gen(
        {.function = 2, .seed = 1, .label_noise = 0.10});
    return gen.make_range(0, kRecords);
  }();
  return recs;
}

/// CPU nanoseconds per item, reported next to items_per_second.
benchmark::Counter ns_per(std::int64_t items) {
  return benchmark::Counter(static_cast<double>(items) * 1e-9,
                            benchmark::Counter::kIsRate |
                                benchmark::Counter::kInvert);
}

void BM_NodeStatsAdd(benchmark::State& state) {
  const auto& recs = records();
  std::vector<Record> sample;
  for (std::size_t i = 0; i < recs.size(); i += kSampleStride) {
    sample.push_back(recs[i]);
  }
  auto stats =
      NodeStats::with_boundaries(sample, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const auto& r : recs) stats.add(r);
    benchmark::DoNotOptimize(stats.counts);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(recs.size()));
  std::size_t bounds = 0;
  for (const auto& h : stats.hists) bounds += h.bounds.size();
  state.counters["bounds"] = static_cast<double>(bounds);
}

BENCHMARK(BM_NodeStatsAdd)->Arg(10)->Arg(100)->Arg(600);

constexpr auto kScratch = pdc::io::FileKind::kScratch;

/// One rank's disk in a scratch directory that is removed afterwards.
struct ScratchDisk {
  pdc::io::ScratchArena arena{"bench_layers", 1};
  pdc::mp::CostModel cost{pdc::mp::Machine::sp2_like()};
  pdc::mp::Clock clock;
  pdc::io::LocalDisk disk{arena.rank_dir(0), &cost, &clock};
};

void BM_BlockRead(benchmark::State& state) {
  const auto& recs = records();
  const auto block = static_cast<std::size_t>(state.range(0));
  const auto kind = state.range(1) == 0 ? pdc::io::FileKind::kKept : kScratch;
  ScratchDisk d;
  d.disk.write_file<Record>("scan.dat", recs, kind);
  std::vector<Record> buf;
  for (auto _ : state) {
    pdc::io::BlockReader<Record> reader(d.disk, "scan.dat", block);
    std::size_t n = 0;
    while (reader.next_block(buf)) n += buf.size();
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(recs.size()));
}

void BM_BlockWrite(benchmark::State& state) {
  const auto& recs = records();
  const auto block = static_cast<std::size_t>(state.range(0));
  ScratchDisk d;
  std::int64_t pass = 0;
  for (auto _ : state) {
    const auto name = "part_" + std::to_string(pass);
    pdc::io::BlockWriter<Record> writer(d.disk, name, block, {}, kScratch);
    for (const auto& r : recs) writer.append(r);
    writer.close();
    benchmark::DoNotOptimize(writer.count());
    if (pass > 0) d.disk.remove("part_" + std::to_string(pass - 1));
    ++pass;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(recs.size()));
}

void BM_TaskFiles(benchmark::State& state) {
  const auto& recs = records();
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto name = [](std::int64_t step, int side) {
    return "task_" + std::to_string(2 * step + side);
  };
  ScratchDisk d;
  std::int64_t step = 0;
  for (auto _ : state) {
    {
      pdc::io::BlockWriter<Record> left(d.disk, name(step, 0), n, {}, kScratch);
      pdc::io::BlockWriter<Record> right(d.disk, name(step, 1), n, {},
                                         kScratch);
      for (std::size_t i = 0; i < n; ++i) {
        (i % 2 == 0 ? left : right).append(recs[i]);
      }
      left.close();
      right.close();
    }
    if (step > 0) {
      d.disk.remove(name(step - 1, 0));
      d.disk.remove(name(step - 1, 1));
    }
    ++step;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["files"] = static_cast<double>(2 * step);
}

void BM_ScanAlive(benchmark::State& state) {
  const auto& recs = noisy_records();
  std::vector<Record> sample;
  for (std::size_t i = 0; i < recs.size(); i += kSampleStride) {
    sample.push_back(recs[i]);
  }
  auto stats = NodeStats::with_boundaries(sample, 600);
  for (const auto& r : recs) stats.add(r);

  // `want` intervals evenly spread over every attribute's intervals, in
  // (attr, interval) order, made alive by the production rule.
  const auto want = static_cast<std::size_t>(state.range(0));
  std::size_t total = 0;
  for (const auto& h : stats.hists) total += h.interval_count();
  std::vector<AliveInterval> alive;
  std::size_t base = 0;
  for (int a = 0; a < pdc::data::kNumNumeric; ++a) {
    const auto& hist = stats.hists[static_cast<std::size_t>(a)];
    std::vector<std::size_t> owned;
    for (std::size_t k = 0; k < want; ++k) {
      const std::size_t at = (2 * k + 1) * total / (2 * want);
      if (at >= base && at < base + hist.interval_count()) {
        owned.push_back(at - base);
      }
    }
    std::uint64_t evaluated = 0;
    pdc::clouds::owned_alive_intervals(
        hist, a, owned, std::numeric_limits<double>::infinity(), alive,
        evaluated);
    base += hist.interval_count();
  }

  const pdc::io::Scan<Record> scan = [&recs](const auto& visit) {
    for (const auto& r : recs) visit(r);
  };
  std::uint64_t taken = 0;
  for (auto _ : state) {
    pdc::clouds::scan_alive(scan, alive, {},
                            [&](std::size_t, float, std::int8_t) { ++taken; });
    benchmark::DoNotOptimize(taken);
  }
  const auto items =
      state.iterations() * static_cast<std::int64_t>(recs.size());
  state.SetItemsProcessed(items);
  state.counters["ns_per_record"] = ns_per(items);
  state.counters["alive"] = static_cast<double>(alive.size());
}

void BM_SortByValue(benchmark::State& state) {
  const auto& recs = noisy_records();
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool alive_interval = state.range(1) != 0;
  const auto salary = [&](std::size_t i) {
    return recs[i].num[pdc::data::kSalary];
  };
  std::vector<std::size_t> by_salary(recs.size());
  for (std::size_t i = 0; i < by_salary.size(); ++i) by_salary[i] = i;
  std::stable_sort(by_salary.begin(), by_salary.end(),
                   [&](std::size_t a, std::size_t b) {
                     return salary(a) < salary(b);
                   });
  // About 2^18 points in distinct inputs.  Sorting one input over and over
  // would let the branch predictor learn its comparisons, which no run
  // repeats.
  const std::size_t count =
      std::min(std::max<std::size_t>(1, (std::size_t{1} << 18) / n),
               recs.size() - n + 1);
  std::mt19937 rng(5);
  std::uniform_int_distribution<std::size_t> any_record(0, recs.size() - 1);
  std::vector<std::vector<AlivePoint>> inputs(count);
  for (std::size_t w = 0; w < count; ++w) {
    std::vector<std::size_t> picked(n);
    if (alive_interval) {
      const auto first =
          by_salary.begin() +
          static_cast<std::ptrdiff_t>(w * (recs.size() - n) / count);
      std::copy(first, first + static_cast<std::ptrdiff_t>(n),
                picked.begin());
      std::sort(picked.begin(), picked.end());
    } else {
      for (auto& i : picked) i = any_record(rng);
    }
    for (const auto i : picked) {
      inputs[w].push_back({salary(i), recs[i].label});
    }
  }

  std::vector<AlivePoint> points;
  std::size_t next = 0;
  for (auto _ : state) {
    points = inputs[next++ % count];
    pdc::clouds::sort_by_value(points,
                               [](const AlivePoint& p) { return p.value; });
    benchmark::DoNotOptimize(points.data());
    benchmark::ClobberMemory();
  }
  const auto items = state.iterations() * static_cast<std::int64_t>(n);
  state.SetItemsProcessed(items);
  state.counters["ns_per_point"] = ns_per(items);
}

BENCHMARK(BM_ScanAlive)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_SortByValue)
    ->Args({25, 0})
    ->Args({276, 1})
    ->Args({809, 1})
    ->Args({13234, 0});
BENCHMARK(BM_BlockRead)->Args({1040, 0})->Args({1040, 1})->Args({4161, 1});
BENCHMARK(BM_BlockWrite)->Arg(1040)->Arg(4161);
BENCHMARK(BM_TaskFiles)->Arg(1040)->Arg(4161)->Iterations(4000);

}  // namespace

BENCHMARK_MAIN();
