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
// -- on a scratch LocalDisk, with blocks of 1040 and 4161 records: the
// training streams' block size, MemoryBudget::paper_scaled(n)
// .block_records(sizeof(Record), 3), at n = 500k and 2M.  items_per_second
// is records streamed per second; the write pass includes creating the
// file.
//
// BM_TaskFiles times a partition step's file lifecycle at queue depth 0:
// N records (the argument, 1040 or 4161) split between two BlockWriters
// into new names, both closed, then the previous step's pair removed.
// Each side gets one block request, so the step is mostly the two opens
// and the two removes.  It runs a fixed 4,000 steps (8,000 files through
// one directory): on ext4, creating a file can cost far more after such
// churn than in a fresh directory, which LocalDisk's recycled inodes
// avoid.  items_per_second is records per second; `files` counts files
// written.
// CI runs the binary as
//
//   ./build/bench/layers --benchmark_min_time=0.2
//       --benchmark_out=bench_layers.json --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
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
  ScratchDisk d;
  d.disk.write_file<Record>("scan.dat", recs);
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
  for (auto _ : state) {
    pdc::io::BlockWriter<Record> writer(d.disk, "part.dat", block);
    for (const auto& r : recs) writer.append(r);
    writer.close();
    benchmark::DoNotOptimize(writer.count());
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
      pdc::io::BlockWriter<Record> left(d.disk, name(step, 0), n);
      pdc::io::BlockWriter<Record> right(d.disk, name(step, 1), n);
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

BENCHMARK(BM_BlockRead)->Arg(1040)->Arg(4161);
BENCHMARK(BM_BlockWrite)->Arg(1040)->Arg(4161);
BENCHMARK(BM_TaskFiles)->Arg(1040)->Arg(4161)->Iterations(4000);

}  // namespace

BENCHMARK_MAIN();
