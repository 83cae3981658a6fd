// Tests for the pSPRINT baseline: correctness (exact splits, replicated
// trees, processor-count invariance), equivalence with the exhaustive
// direct method, and the rid-exchange diagnostics that make SPRINT's known
// costs visible.

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "clouds/builder.hpp"
#include "data/dataset.hpp"
#include "io/scratch.hpp"
#include "mp/runtime.hpp"
#include "sprint/attr_list.hpp"
#include "sprint/sprint.hpp"

namespace pdc::sprint {
namespace {

using data::AgrawalGenerator;
using data::Record;

struct SprintRun {
  std::string tree_text;
  double accuracy = 0.0;
  SprintDiag diag0;
  std::uint64_t bytes_total = 0;
  std::size_t tree_nodes = 0;
};

SprintRun run_sprint(int p, std::uint64_t n, int function,
                     SprintConfig cfg = {}) {
  io::ScratchArena arena("sprint_test", p);
  mp::Runtime rt(p);
  AgrawalGenerator gen({.function = function, .seed = 5});
  data::DatasetPartition part(n, p);
  const auto test = data::make_test_set(gen, n, 2000);

  SprintRun out;
  std::mutex mu;
  rt.run([&](mp::Comm& comm) {
    io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                       &comm.clock());
    data::materialize_local_slice(gen, part, comm.rank(), disk, "train.dat",
                                  1024);
    SprintBuilder builder(cfg,
                          {&comm.clock(), comm.cost().machine()});
    SprintDiag diag;
    auto tree = builder.train(comm, disk, "train.dat", &diag);
    std::lock_guard lock(mu);
    out.bytes_total += disk.stats().total_bytes();
    if (comm.rank() == 0) {
      out.tree_text = tree.to_string();
      out.accuracy = tree.accuracy(test);
      out.diag0 = diag;
      out.tree_nodes = tree.live_count();
    }
  });
  return out;
}

TEST(Sprint, EntryLayout) {
  EXPECT_EQ(sizeof(ListEntry), 12u);
  EXPECT_EQ(kBytesPerRecord, 12u * 9u);
  EXPECT_TRUE(entry_less({1.0f, 5, 0}, {2.0f, 1, 0}));
  EXPECT_TRUE(entry_less({1.0f, 1, 0}, {1.0f, 2, 0}));  // rid tie-break
}

TEST(Sprint, LearnsFunction2Accurately) {
  const auto run = run_sprint(4, 8000, 2);
  EXPECT_GE(run.accuracy, 0.95);
  EXPECT_GT(run.tree_nodes, 3u);
  EXPECT_GT(run.diag0.nodes, 0u);
}

class SprintProcs : public ::testing::TestWithParam<int> {};

TEST_P(SprintProcs, TreeInvariantToProcessorCount) {
  const auto baseline = run_sprint(1, 4000, 2);
  const auto run = run_sprint(GetParam(), 4000, 2);
  EXPECT_EQ(run.tree_text, baseline.tree_text) << "p=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Procs, SprintProcs, ::testing::Values(2, 3, 4, 8));

TEST(Sprint, MatchesDirectMethodSplits) {
  // SPRINT's sweeps are exact, so its tree must match the sequential
  // direct-method CLOUDS tree built with the same stopping rules.
  const std::uint64_t n = 4000;
  const auto run = run_sprint(4, n, 2);

  AgrawalGenerator gen({.function = 2, .seed = 5});
  auto train = gen.make_range(0, n);
  clouds::CloudsConfig cfg;
  cfg.method = clouds::SplitMethod::kDirect;
  clouds::CloudsBuilder builder(cfg);
  auto reference = builder.build(train);
  EXPECT_EQ(run.tree_text, reference.to_string());
}

TEST(Sprint, RidExchangeIsVisibleAndLarge) {
  const auto run = run_sprint(4, 6000, 2);
  // Every split gathers the left rid set globally: across the whole build
  // that is many multiples of n.
  EXPECT_GT(run.diag0.rids_exchanged, 6000u);
  EXPECT_GT(run.diag0.max_rid_set, 1000u);
}

TEST(Sprint, StreamsManyMoreEntriesThanRecords) {
  const std::uint64_t n = 6000;
  const auto run = run_sprint(4, n, 2);
  // 9 lists re-read and re-written per level: the I/O footprint CLOUDS was
  // designed to avoid.
  EXPECT_GT(run.diag0.entries_streamed, 9 * n);
}

TEST(Sprint, RespectsStoppingRules) {
  SprintConfig cfg;
  cfg.max_depth = 3;
  const auto run = run_sprint(2, 3000, 2, cfg);
  // Depth-3 binary tree has at most 15 nodes.
  EXPECT_LE(run.tree_nodes, 15u);
}

TEST(Sprint, PureDataSingleLeaf) {
  // Function 1 data filtered to one class cannot be split.
  io::ScratchArena arena("sprint_pure", 2);
  mp::Runtime rt(2);
  std::mutex mu;
  std::size_t nodes = 0;
  rt.run([&](mp::Comm& comm) {
    io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                       &comm.clock());
    AgrawalGenerator gen({.function = 1, .seed = 3});
    std::vector<Record> mine;
    for (std::uint64_t i = 0; mine.size() < 300; ++i) {
      auto r = gen.make(i);
      if (r.label == 0 && i % 2 == static_cast<std::uint64_t>(comm.rank())) {
        mine.push_back(r);
      }
    }
    disk.write_file<Record>("train.dat", mine);
    SprintBuilder builder({});
    auto tree = builder.train(comm, disk, "train.dat");
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      nodes = tree.live_count();
    }
  });
  EXPECT_EQ(nodes, 1u);
}

class SprintExchange : public ::testing::TestWithParam<int> {};

TEST_P(SprintExchange, DistributedHashMatchesReplicatedTree) {
  const int p = GetParam();
  SprintConfig replicated;
  replicated.rid_exchange = RidExchange::kReplicated;
  SprintConfig scalparc;
  scalparc.rid_exchange = RidExchange::kDistributedHash;
  const auto a = run_sprint(p, 4000, 2, replicated);
  const auto b = run_sprint(p, 4000, 2, scalparc);
  EXPECT_EQ(a.tree_text, b.tree_text);
}

TEST_P(SprintExchange, DistributedHashShrinksPerRankSet) {
  const int p = GetParam();
  if (p == 1) return;
  SprintConfig replicated;
  SprintConfig scalparc;
  scalparc.rid_exchange = RidExchange::kDistributedHash;
  const auto a = run_sprint(p, 6000, 2, replicated);
  const auto b = run_sprint(p, 6000, 2, scalparc);
  // ScalParC's point: the per-rank membership structure shrinks ~p-fold.
  EXPECT_LT(b.diag0.max_rid_set * 2, a.diag0.max_rid_set);
}

INSTANTIATE_TEST_SUITE_P(Procs, SprintExchange, ::testing::Values(2, 4, 8));

TEST(Sprint, DistributedHashSurvivesSkewAndTinyBlocks) {
  // The distributed-hash membership queries are collectives per streaming
  // block, so ranks with different portion sizes must stay in lockstep.
  // Stress it: all records start on one rank (categorical lists keep that
  // skew) and a tiny memory budget forces many block rounds.
  const int p = 4;
  io::ScratchArena arena("sprint_skew", p);
  mp::Runtime rt(p);
  AgrawalGenerator gen({.function = 2, .seed = 5});
  std::mutex mu;
  std::string texts[2];
  for (int mode = 0; mode < 2; ++mode) {
    rt.run([&](mp::Comm& comm) {
      io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                         &comm.clock());
      std::vector<Record> mine;
      if (comm.rank() == 2) mine = gen.make_range(0, 3000);  // all the data
      disk.write_file<Record>("train.dat", mine);
      SprintConfig cfg;
      cfg.memory_bytes = 4096;  // blocks of ~85 list entries
      cfg.rid_exchange = mode == 0 ? RidExchange::kReplicated
                                   : RidExchange::kDistributedHash;
      SprintBuilder builder(cfg);
      auto tree = builder.train(comm, disk, "train.dat");
      if (comm.rank() == 0) {
        std::lock_guard lock(mu);
        texts[mode] = tree.to_string();
      }
    });
  }
  EXPECT_EQ(texts[0], texts[1]);
  EXPECT_GT(texts[0].size(), 100u);  // a real tree was built
}

TEST(Sprint, CleansUpListFiles) {
  const int p = 2;
  io::ScratchArena arena("sprint_clean", p);
  mp::Runtime rt(p);
  AgrawalGenerator gen({.function = 2, .seed = 5});
  data::DatasetPartition part(2000, p);
  std::uint64_t train_bytes = 0;
  std::size_t pages_live = 0;
  std::size_t pages_freed = 0;
  std::mutex mu;
  rt.run([&](mp::Comm& comm) {
    io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                       &comm.clock());
    const auto n = data::materialize_local_slice(gen, part, comm.rank(), disk,
                                                 "train.dat", 1024);
    {
      std::lock_guard lock(mu);
      train_bytes += n * sizeof(Record);
    }
    SprintBuilder builder({});
    (void)builder.train(comm, disk, "train.dat");
    std::lock_guard lock(mu);
    pages_live += disk.scratch().live_pages();
    pages_freed += disk.scratch().free_pages();
  });
  // Only the training files survive, and every list file's pages are free.
  EXPECT_EQ(arena.bytes_on_disk(), train_bytes);
  EXPECT_EQ(pages_live, 0u);
  EXPECT_GT(pages_freed, 0u);
}

}  // namespace
}  // namespace pdc::sprint
