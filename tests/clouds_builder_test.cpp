// Tests for the sequential CLOUDS builder (in-core and out-of-core), the
// decision tree, MDL pruning and the quality metrics.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "clouds/builder.hpp"
#include "clouds/metrics.hpp"
#include "clouds/prune.hpp"
#include "data/agrawal.hpp"
#include "data/dataset.hpp"
#include "io/scratch.hpp"
#include "mp/serialize.hpp"

namespace pdc::clouds {
namespace {

using data::AgrawalGenerator;
using data::Record;

std::vector<Record> dataset(std::size_t n, int function, std::uint64_t seed,
                            double noise = 0.0) {
  AgrawalGenerator gen(
      {.function = function, .seed = seed, .label_noise = noise});
  return gen.make_range(0, n);
}

// ---- DecisionTree mechanics ----

TEST(Tree, FreshTreeIsSingleLeaf) {
  DecisionTree t(data::ClassCounts{{{3, 7}}});
  EXPECT_EQ(t.live_count(), 1u);
  EXPECT_EQ(t.leaf_count(), 1u);
  EXPECT_EQ(t.max_depth(), 0);
  Record r{};
  EXPECT_EQ(t.classify(r), 1);  // majority class
}

TEST(Tree, GrowAndClassify) {
  DecisionTree t(data::ClassCounts{{{10, 10}}});
  Split s;
  s.kind = Split::Kind::kNumeric;
  s.attr = data::kAge;
  s.threshold = 40.0f;
  t.grow(t.root(), s, data::ClassCounts{{{10, 0}}},
         data::ClassCounts{{{0, 10}}});
  EXPECT_EQ(t.live_count(), 3u);
  EXPECT_EQ(t.leaf_count(), 2u);
  EXPECT_EQ(t.max_depth(), 1);
  Record r{};
  r.num[data::kAge] = 30.0f;
  EXPECT_EQ(t.classify(r), 0);
  r.num[data::kAge] = 50.0f;
  EXPECT_EQ(t.classify(r), 1);
}

TEST(Tree, CollapseRestoresLeaf) {
  DecisionTree t(data::ClassCounts{{{10, 4}}});
  Split s;
  s.kind = Split::Kind::kNumeric;
  s.attr = data::kAge;
  s.threshold = 40.0f;
  t.grow(t.root(), s, data::ClassCounts{{{10, 0}}},
         data::ClassCounts{{{0, 4}}});
  t.collapse(t.root());
  EXPECT_EQ(t.live_count(), 1u);
  Record r{};
  r.num[data::kAge] = 80.0f;
  EXPECT_EQ(t.classify(r), 0);  // back to majority
}

TEST(Tree, CategoricalSplitRouting) {
  DecisionTree t(data::ClassCounts{{{5, 5}}});
  Split s;
  s.kind = Split::Kind::kCategorical;
  s.attr = data::kZipcode;
  s.subset = 0b000000101;  // zipcodes 0 and 2 go left
  t.grow(t.root(), s, data::ClassCounts{{{5, 0}}},
         data::ClassCounts{{{0, 5}}});
  Record r{};
  r.cat[data::kZipcode] = 2;
  EXPECT_EQ(t.classify(r), 0);
  r.cat[data::kZipcode] = 3;
  EXPECT_EQ(t.classify(r), 1);
}

TEST(Tree, ToStringMentionsAttributeNames) {
  DecisionTree t(data::ClassCounts{{{10, 10}}});
  Split s;
  s.kind = Split::Kind::kNumeric;
  s.attr = data::kSalary;
  s.threshold = 60'000.0f;
  t.grow(t.root(), s, data::ClassCounts{{{10, 0}}},
         data::ClassCounts{{{0, 10}}});
  const auto text = t.to_string();
  EXPECT_NE(text.find("salary"), std::string::npos);
  EXPECT_NE(text.find("leaf"), std::string::npos);
}

// ---- In-core builder ----

class BuilderMethods : public ::testing::TestWithParam<SplitMethod> {};

TEST_P(BuilderMethods, LearnsFunction1AccuratelyAndCompactly) {
  // Function 1 is a pure age rule; any decent method nails it.
  auto train = dataset(4000, 1, 42);
  auto test = dataset(1000, 1, 4242);
  CloudsConfig cfg;
  cfg.method = GetParam();
  cfg.q_root = 200;
  CloudsBuilder builder(cfg);
  auto tree = builder.build(train);
  EXPECT_GE(tree.accuracy(test), 0.97);
  // SS splits only at sample-quantile boundaries, so it refines the two
  // age cuts over a few extra levels; SSE and direct land them exactly.
  EXPECT_LE(shape_of(tree).depth, GetParam() == SplitMethod::kSS ? 14 : 8);
}

TEST_P(BuilderMethods, LearnsFunction2WithHighAccuracy) {
  auto train = dataset(8000, 2, 7);
  auto test = dataset(2000, 2, 77);
  CloudsConfig cfg;
  cfg.method = GetParam();
  cfg.q_root = 400;
  CloudsBuilder builder(cfg);
  auto tree = builder.build(train);
  EXPECT_GE(tree.accuracy(test), 0.93) << "method "
                                       << static_cast<int>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Methods, BuilderMethods,
                         ::testing::Values(SplitMethod::kSS, SplitMethod::kSSE,
                                           SplitMethod::kDirect));

TEST(Builder, StopsAtPureNodes) {
  // Single-class data: the tree must stay a single leaf.
  std::vector<Record> train;
  AgrawalGenerator gen({.function = 1, .seed = 3});
  for (std::uint64_t i = 0; train.size() < 500; ++i) {
    auto r = gen.make(i);
    if (r.label == 0) train.push_back(r);
  }
  CloudsBuilder builder(CloudsConfig{});
  auto tree = builder.build(train);
  EXPECT_EQ(tree.live_count(), 1u);
}

TEST(Builder, RespectsMaxDepth) {
  auto train = dataset(4000, 2, 19, /*noise=*/0.2);
  CloudsConfig cfg;
  cfg.max_depth = 3;
  CloudsBuilder builder(cfg);
  auto tree = builder.build(train);
  EXPECT_LE(tree.max_depth(), 3);
}

TEST(Builder, RespectsMinRecords) {
  auto train = dataset(1000, 2, 23, /*noise=*/0.3);
  CloudsConfig cfg;
  cfg.min_records = 400;
  CloudsBuilder builder(cfg);
  auto tree = builder.build(train);
  // No leaf may have been split below the threshold; depth stays tiny.
  EXPECT_LE(tree.max_depth(), 3);
}

TEST(Builder, PurityStopCoarsensTree) {
  auto train = dataset(4000, 2, 29, /*noise=*/0.1);
  CloudsConfig strict;
  strict.purity_stop = 1.0;
  CloudsConfig loose;
  loose.purity_stop = 0.9;
  CloudsBuilder b1(strict);
  CloudsBuilder b2(loose);
  auto t1 = b1.build(train);
  auto t2 = b2.build(train);
  EXPECT_LE(t2.live_count(), t1.live_count());
}

TEST(Builder, EmptyDataYieldsSingleLeaf) {
  CloudsBuilder builder(CloudsConfig{});
  auto tree = builder.build(std::vector<Record>{});
  EXPECT_EQ(tree.live_count(), 1u);
}

TEST(Builder, QScheduleShrinksWithNodeSize) {
  CloudsConfig cfg;
  cfg.q_root = 10'000;
  cfg.q_min = 10;
  EXPECT_EQ(cfg.q_for(6'000'000, 6'000'000), 10'000);
  EXPECT_EQ(cfg.q_for(3'000'000, 6'000'000), 5'000);
  EXPECT_EQ(cfg.q_for(100, 6'000'000), 10);  // floor at q_min
}

TEST(Builder, StatsTrackWork) {
  auto train = dataset(3000, 2, 37);
  CloudsBuilder builder(CloudsConfig{});
  (void)builder.build(train);
  const auto& st = builder.stats();
  EXPECT_GT(st.nodes_processed, 0u);
  EXPECT_GT(st.records_scanned, 3000u);  // multiple levels
  EXPECT_GT(st.survival_samples, 0u);
  EXPECT_GE(st.mean_survival(), 0.0);
}

// ---- Out-of-core builder ----

struct OocFixture : ::testing::Test {
  OocFixture()
      : arena("clouds_ooc", 1),
        cost(mp::Machine::sp2_like()),
        disk(arena.rank_dir(0), &cost, &clock) {}

  io::ScratchArena arena;
  mp::CostModel cost;
  mp::Clock clock;
  io::LocalDisk disk;
};

TEST_F(OocFixture, OutOfCoreMatchesInCoreExactly) {
  auto train = dataset(6000, 2, 51);
  std::vector<Record> sample;
  for (std::size_t i = 0; i < train.size(); i += 20) {
    sample.push_back(train[i]);
  }
  disk.write_file<Record>("train.dat", train);

  CloudsConfig cfg;
  cfg.q_root = 300;
  CloudsBuilder in_core(cfg);
  auto t_mem = in_core.build(train, sample);

  CloudsBuilder ooc(cfg);
  // Tiny budget: forces nearly every node through the streaming path.
  io::MemoryBudget budget(16 * 1024);
  auto t_disk = ooc.build_out_of_core(disk, "train.dat", sample, budget);

  EXPECT_EQ(t_mem.to_string(), t_disk.to_string());
  EXPECT_GT(ooc.stats().out_of_core_nodes, 0u);
}

TEST_F(OocFixture, LargeBudgetGoesFullyInCore) {
  auto train = dataset(2000, 2, 57);
  std::vector<Record> sample(train.begin(), train.begin() + 100);
  disk.write_file<Record>("train.dat", train);
  CloudsBuilder builder(CloudsConfig{});
  io::MemoryBudget budget(64 << 20);
  (void)builder.build_out_of_core(disk, "train.dat", sample, budget);
  EXPECT_EQ(builder.stats().out_of_core_nodes, 0u);
}

TEST_F(OocFixture, ScratchFilesAreCleanedUp) {
  auto train = dataset(4000, 2, 61);
  std::vector<Record> sample;
  for (std::size_t i = 0; i < train.size(); i += 20) {
    sample.push_back(train[i]);
  }
  disk.write_file<Record>("train.dat", train);
  CloudsBuilder builder(CloudsConfig{});
  io::MemoryBudget budget(16 * 1024);
  (void)builder.build_out_of_core(disk, "train.dat", sample, budget);
  // Only the original training file remains on disk, and every node file's
  // pages are free.
  EXPECT_GT(builder.stats().out_of_core_nodes, 0u);
  EXPECT_EQ(arena.bytes_on_disk(), train.size() * sizeof(Record));
  EXPECT_EQ(disk.scratch().live_pages(), 0u);
  EXPECT_GT(disk.scratch().free_pages(), 0u);
}

TEST_F(OocFixture, OutOfCorePerformsMoreIo) {
  auto train = dataset(4000, 2, 67);
  std::vector<Record> sample;
  for (std::size_t i = 0; i < train.size(); i += 20) {
    sample.push_back(train[i]);
  }
  disk.write_file<Record>("train.dat", train);
  const auto baseline = disk.stats().bytes_read;
  CloudsBuilder builder(CloudsConfig{});
  io::MemoryBudget budget(16 * 1024);
  (void)builder.build_out_of_core(disk, "train.dat", sample, budget);
  // The streaming build must re-read the data several times (stats pass +
  // partition pass per out-of-core level).
  EXPECT_GT(disk.stats().bytes_read - baseline,
            2 * train.size() * sizeof(Record));
}

// ---- MDL pruning ----

TEST(Prune, LeafCostGrowsWithImpurity) {
  EXPECT_LT(mdl_leaf_cost(data::ClassCounts{{{100, 0}}}),
            mdl_leaf_cost(data::ClassCounts{{{50, 50}}}));
}

TEST(Prune, PureTreeUnchanged) {
  auto train = dataset(2000, 1, 71);
  CloudsBuilder builder(CloudsConfig{});
  auto tree = builder.build(train);
  const auto before = tree.live_count();
  const auto stats = mdl_prune(tree);
  // Function 1 is cleanly learnable; pruning should not gut the tree.
  EXPECT_EQ(stats.nodes_before, before);
  EXPECT_GT(tree.accuracy(dataset(500, 1, 717)), 0.95);
}

TEST(Prune, NoisyTreeShrinksWithoutAccuracyLoss) {
  auto train = dataset(4000, 2, 73, /*noise=*/0.15);
  auto test = dataset(1500, 2, 737);  // clean test set
  CloudsConfig cfg;
  cfg.max_depth = 30;
  CloudsBuilder builder(cfg);
  auto tree = builder.build(train);
  const double acc_before = tree.accuracy(test);
  const auto before = tree.live_count();
  const auto stats = mdl_prune(tree);
  EXPECT_LT(stats.nodes_after, before);
  EXPECT_GT(stats.collapsed, 0u);
  const double acc_after = tree.accuracy(test);
  EXPECT_GE(acc_after, acc_before - 0.02);
}

TEST(Prune, AggressiveSplitCostPrunesMore) {
  auto train = dataset(3000, 2, 79, /*noise=*/0.2);
  CloudsBuilder b1{CloudsConfig{}};
  CloudsBuilder b2{CloudsConfig{}};
  auto t1 = b1.build(train);
  auto t2 = b2.build(train);
  mdl_prune(t1, PruneConfig{.split_value_bits = 4.0});
  mdl_prune(t2, PruneConfig{.split_value_bits = 64.0});
  EXPECT_LE(t2.live_count(), t1.live_count());
}

// ---- Metrics ----

TEST(Metrics, ConfusionMatchesAccuracy) {
  auto train = dataset(3000, 2, 83);
  auto test = dataset(1000, 2, 838);
  CloudsBuilder builder(CloudsConfig{});
  auto tree = builder.build(train);
  const auto conf = evaluate(tree, test);
  EXPECT_EQ(conf.total(), 1000);
  EXPECT_NEAR(conf.accuracy(), tree.accuracy(test), 1e-12);
}

TEST(Metrics, ShapeConsistent) {
  auto train = dataset(2000, 2, 89);
  CloudsBuilder builder(CloudsConfig{});
  auto tree = builder.build(train);
  const auto s = shape_of(tree);
  EXPECT_EQ(s.nodes, tree.live_count());
  EXPECT_EQ(s.leaves, tree.leaf_count());
  EXPECT_EQ(s.nodes, 2 * s.leaves - 1);  // binary tree invariant
}

// ---- Charge pins ----

/// 64-bit FNV-1a, the hash the checkpoint manifest uses.
std::uint64_t fnv1a64(std::span<const std::byte> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes) {
    hash = (hash ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ULL;
  }
  return hash;
}

// The modeled clock and gini-evaluation count of a seeded in-core build,
// hashed byte for byte.  Every modeled row in the BENCH_*.json snapshots
// rests on these charges, so a refactor of the split kernels must leave
// both digests exactly as they are.
std::uint64_t build_charge_digest(SplitMethod method) {
  CloudsConfig cfg;
  cfg.method = method;
  cfg.q_root = 200;
  mp::Clock clock;
  obs::Tracer tracer(1);
  CostHooks hooks;
  hooks.clock = &clock;
  hooks.tracer = tracer.rank(0, &clock);
  CloudsBuilder builder(cfg, hooks);
  const auto tree = builder.build(dataset(20000, 2, 41, 0.05));
  EXPECT_GT(tree.leaf_count(), 1u);
  mp::WireWriter out;
  out.put_raw(clock.snapshot());
  out.put_raw(tracer.metrics(0).counters().at("clouds.gini_evals").value);
  return fnv1a64(out.bytes());
}

TEST(ChargePins, SequentialBuildChargesExactlyAsPinned) {
  EXPECT_EQ(build_charge_digest(SplitMethod::kSS), 0xef6a794a7a8c6d85u)
      << "SS";
  EXPECT_EQ(build_charge_digest(SplitMethod::kSSE), 0x7b8835ecab44d135u)
      << "SSE";
}

}  // namespace
}  // namespace pdc::clouds
