// Per-kernel host cost of the training path, in ns/record.
//
// BM_NodeStatsAdd times NodeStats::add — the paper's "evaluation of
// interval boundaries" kernel, run for every record of a large node at the
// root and again for both children inside every partitioning pass — over
// pre-generated Agrawal records (function 2, 5% attribute perturbation, as
// in the train-clean workload) at q = 10, 100 and 600 intervals per numeric
// attribute.  The boundaries come from a 5% sample of the same records, as
// a node's do; the `bounds` counter is their total over the six lanes.
// items_per_second is records binned per second.  CI runs it as
//
//   ./build/bench/layers --benchmark_min_time=0.2
//       --benchmark_out=bench_layers.json --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "clouds/splitters.hpp"
#include "data/agrawal.hpp"

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

}  // namespace

BENCHMARK_MAIN();
