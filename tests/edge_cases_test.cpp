// Edge-case coverage across modules: empty all-to-all blocks, non-zero
// broadcast roots, non-commutative scans, root-file ownership in the
// driver, LPT bounds on random instances, and interval construction over
// awkward distributions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "clouds/intervals.hpp"
#include "data/dataset.hpp"
#include "dc/lpt.hpp"
#include "io/scratch.hpp"
#include "mp/runtime.hpp"
#include "pclouds/pclouds.hpp"

namespace pdc {
namespace {

// ---- mp edge cases ----

TEST(MpEdge, AllToAllWithAllEmptyBlocks) {
  mp::Runtime rt(4);
  rt.run([&](mp::Comm& comm) {
    std::vector<std::vector<int>> out(4);
    const auto in = comm.all_to_all<int>(out);
    for (const auto& part : in) EXPECT_TRUE(part.empty());
  });
}

TEST(MpEdge, BroadcastFromNonzeroRoot) {
  mp::Runtime rt(5);
  rt.run([&](mp::Comm& comm) {
    const double v = comm.broadcast_value<double>(3, comm.rank() * 1.5);
    EXPECT_DOUBLE_EQ(v, 4.5);
  });
}

TEST(MpEdge, PrefixSumWithNonCommutativeOp) {
  // 2x2 integer matrix product: associative, NOT commutative.  The scan
  // must fold strictly in rank order.
  struct M2 {
    std::int64_t a, b, c, d;
  };
  auto mul = [](M2 x, const M2& y) {
    return M2{x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
              x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d};
  };
  const int p = 4;
  mp::Runtime rt(p);
  rt.run([&](mp::Comm& comm) {
    // Rank r contributes [[1, r+1], [0, 1]]; the ordered product has upper
    // right entry 1+2+...+(rank+1).
    const M2 mine{1, comm.rank() + 1, 0, 1};
    const auto scan = comm.prefix_sum<M2>(mine, mul);
    const std::int64_t r = comm.rank() + 1;
    EXPECT_EQ(scan.b, r * (r + 1) / 2);
    EXPECT_EQ(scan.a, 1);
    EXPECT_EQ(scan.d, 1);
  });
}

TEST(MpEdge, LargePayloadBroadcast) {
  mp::Runtime rt(3);
  rt.run([&](mp::Comm& comm) {
    std::vector<std::uint64_t> big;
    if (comm.rank() == 0) {
      big.resize(200'000);
      std::iota(big.begin(), big.end(), 0);
    }
    const auto got = comm.broadcast<std::uint64_t>(0, big);
    ASSERT_EQ(got.size(), 200'000u);
    EXPECT_EQ(got[123'456], 123'456u);
  });
}

// ---- dc edge cases ----

TEST(DcEdge, LptMakespanWithinClassicBound) {
  // LPT guarantee: makespan <= (4/3 - 1/(3m)) * OPT, and OPT >= max(total/m,
  // max task).  Check the implied bound over random instances.
  std::mt19937 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const int m = 1 + static_cast<int>(rng() % 8);
    std::vector<double> costs(1 + rng() % 40);
    double total = 0.0;
    double largest = 0.0;
    for (auto& c : costs) {
      c = 1.0 + static_cast<double>(rng() % 1000);
      total += c;
      largest = std::max(largest, c);
    }
    const auto assign = dc::lpt_assign(costs, m);
    // Provable list-scheduling bound: makespan <= total/m + (1-1/m)*max.
    EXPECT_LE(assign.makespan,
              total / m + (1.0 - 1.0 / m) * largest + 1e-9)
        << "m=" << m << " tasks=" << costs.size();
    // And never below the trivial lower bound.
    EXPECT_GE(assign.makespan, std::max(total / m, largest) - 1e-9);
    // Sanity: every task assigned a valid rank.
    for (int owner : assign.owner) {
      EXPECT_GE(owner, 0);
      EXPECT_LT(owner, m);
    }
  }
}

// ---- clouds interval edge cases ----

class IntervalDistributions : public ::testing::TestWithParam<int> {};

TEST_P(IntervalDistributions, EquiDepthBucketsAreBalanced) {
  std::mt19937 rng(7 + GetParam());
  std::vector<float> sample(20'000);
  switch (GetParam()) {
    case 0:  // uniform
      for (auto& v : sample) {
        v = static_cast<float>(rng() % 100'000) / 100.0f;
      }
      break;
    case 1: {  // exponential-ish skew
      std::exponential_distribution<float> e(0.5f);
      for (auto& v : sample) v = e(rng);
      break;
    }
    case 2: {  // bimodal
      std::normal_distribution<float> lo(0.0f, 1.0f);
      std::normal_distribution<float> hi(100.0f, 1.0f);
      for (std::size_t i = 0; i < sample.size(); ++i) {
        sample[i] = (i % 2 == 0) ? lo(rng) : hi(rng);
      }
      break;
    }
    default: {  // heavy ties
      for (auto& v : sample) v = static_cast<float>(rng() % 7);
      break;
    }
  }
  const int q = 20;
  const auto bounds = clouds::equi_depth_boundaries(sample, q);
  // Count sample points per interval; for continuous distributions the
  // buckets should be within 2x of the ideal (ties can merge buckets).
  clouds::IntervalHist hist;
  hist.bounds = bounds;
  hist.reset_counts();
  for (const float v : sample) hist.add(v, 0);
  const double ideal = static_cast<double>(sample.size()) /
                       static_cast<double>(hist.interval_count());
  if (GetParam() != 3) {  // ties make balance impossible by construction
    for (const auto& f : hist.freq) {
      EXPECT_LT(static_cast<double>(data::total(f)), 2.5 * ideal);
    }
  }
  EXPECT_EQ(data::total(hist.total_counts()),
            static_cast<std::int64_t>(sample.size()));
}

INSTANTIATE_TEST_SUITE_P(Shapes, IntervalDistributions,
                         ::testing::Values(0, 1, 2, 3));

// ---- degenerate training inputs must not crash the parallel stack ----

clouds::DecisionTree train_records(int p,
                                   const std::vector<data::Record>& all) {
  io::ScratchArena arena("degenerate", p);
  mp::Runtime rt(p);
  clouds::DecisionTree out;
  std::mutex mu;
  rt.run([&](mp::Comm& comm) {
    io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                       &comm.clock());
    // Contiguous slices, possibly empty on the trailing ranks.
    const std::size_t per =
        (all.size() + static_cast<std::size_t>(p) - 1) /
        static_cast<std::size_t>(p);
    const std::size_t lo =
        std::min(all.size(), static_cast<std::size_t>(comm.rank()) * per);
    const std::size_t hi = std::min(all.size(), lo + per);
    disk.write_file<data::Record>(
        "train.dat", std::span<const data::Record>(all.data() + lo, hi - lo));
    pclouds::PcloudsConfig cfg;
    cfg.clouds.q_root = 50;
    auto tree = pclouds::pclouds_train(comm, cfg, disk, "train.dat",
                                       std::span<const data::Record>(all));
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      out = std::move(tree);
    }
  });
  return out;
}

TEST(DegenerateInputs, EmptyDatasetYieldsASingleLeaf) {
  const auto tree = train_records(2, {});
  EXPECT_TRUE(tree.node(tree.root()).leaf);
  EXPECT_EQ(tree.live_count(), 1u);
}

TEST(DegenerateInputs, SingleClassDataYieldsASingleLeaf) {
  data::AgrawalGenerator gen({.function = 2, .seed = 5});
  std::vector<data::Record> all;
  for (std::uint64_t i = 0; all.size() < 300; ++i) {
    auto r = gen.make(i);
    r.label = 0;  // force purity
    all.push_back(r);
  }
  const auto tree = train_records(3, all);
  EXPECT_TRUE(tree.node(tree.root()).leaf);
  EXPECT_EQ(tree.node(tree.root()).label, 0);
}

TEST(DegenerateInputs, MoreRanksThanRecordsStillTrains) {
  data::AgrawalGenerator gen({.function = 2, .seed = 5});
  const auto all = gen.make_range(0, 5);
  const auto tree = train_records(8, all);
  EXPECT_GE(tree.live_count(), 1u);
  // Every training record must still be classified by *some* leaf.
  for (const auto& r : all) {
    const auto label = tree.classify(r);
    EXPECT_TRUE(label == 0 || label == 1);
  }
}

TEST(DegenerateInputs, SingleRecordDataset) {
  data::AgrawalGenerator gen({.function = 2, .seed = 5});
  const auto tree = train_records(2, gen.make_range(0, 1));
  EXPECT_TRUE(tree.node(tree.root()).leaf);
}

}  // namespace
}  // namespace pdc
