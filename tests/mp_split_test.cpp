// Tests for communicator splitting (Comm::split): group formation, rank
// ordering, scoped collectives, nesting, and clock semantics.

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <vector>

#include "mp/runtime.hpp"

namespace pdc::mp {
namespace {

TEST(Split, EvenOddGroupsFormCorrectly) {
  Runtime rt(6);
  rt.run([&](Comm& world) {
    Comm sub = world.split(world.rank() % 2);
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), world.rank() / 2);
    EXPECT_EQ(sub.global_rank(), world.rank());
  });
}

TEST(Split, KeyControlsOrdering) {
  Runtime rt(4);
  rt.run([&](Comm& world) {
    // Reverse ordering: key = -rank.
    Comm sub = world.split(0, world.size() - world.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), world.size() - 1 - world.rank());
  });
}

TEST(Split, CollectivesScopedToGroup) {
  Runtime rt(8);
  rt.run([&](Comm& world) {
    const int color = world.rank() < 3 ? 0 : 1;  // groups of 3 and 5
    Comm sub = world.split(color);
    const auto sum = sub.all_reduce<std::int64_t>(1);
    EXPECT_EQ(sum, color == 0 ? 3 : 5);
    const auto gathered = sub.all_gather<int>(
        std::vector<int>{world.rank()});
    ASSERT_EQ(gathered.size(), static_cast<std::size_t>(sub.size()));
    for (int g : gathered) {
      EXPECT_EQ(g < 3, color == 0);  // only my group's members
    }
  });
}

TEST(Split, NestedSplits) {
  Runtime rt(8);
  rt.run([&](Comm& world) {
    Comm half = world.split(world.rank() / 4);   // two groups of 4
    Comm quarter = half.split(half.rank() / 2);  // four groups of 2
    EXPECT_EQ(quarter.size(), 2);
    const auto sum = quarter.all_reduce<int>(world.rank());
    // Partners are world ranks {0,1},{2,3},{4,5},{6,7}.
    const int base = (world.rank() / 2) * 2;
    EXPECT_EQ(sum, base + base + 1);
  });
}

TEST(Split, RepeatedSplitsGetFreshContexts) {
  Runtime rt(4);
  rt.run([&](Comm& world) {
    for (int round = 0; round < 5; ++round) {
      Comm sub = world.split(world.rank() % 2);
      EXPECT_EQ(sub.all_reduce<int>(round), 2 * round);
    }
  });
}

TEST(Split, SingletonGroupWorks) {
  Runtime rt(3);
  rt.run([&](Comm& world) {
    Comm alone = world.split(world.rank());  // every rank its own group
    EXPECT_EQ(alone.size(), 1);
    EXPECT_EQ(alone.rank(), 0);
    EXPECT_EQ(alone.all_reduce<int>(7), 7);
    alone.barrier();
  });
}

TEST(Split, MinLocWithinGroup) {
  Runtime rt(6);
  rt.run([&](Comm& world) {
    Comm sub = world.split(world.rank() < 2 ? 0 : 1);
    auto [best, owner] = sub.min_loc<double>(100.0 - sub.rank());
    EXPECT_EQ(owner, sub.size() - 1);
    EXPECT_DOUBLE_EQ(best, 100.0 - (sub.size() - 1));
  });
}

TEST(Split, GroupClocksSyncOnlyWithinGroup) {
  Runtime rt(4);
  auto report = rt.run([&](Comm& world) {
    // Group 0 = {0,1}, group 1 = {2,3}.  The split itself synchronizes the
    // whole world (it is a parent collective); skew added afterwards must
    // only propagate within the group: rank 1 idles at the group barrier,
    // ranks 2 and 3 never see rank 0's 10 seconds.
    Comm sub = world.split(world.rank() / 2);
    if (world.rank() == 0) world.clock().add_compute(10.0);
    sub.barrier();
  });
  EXPECT_GT(report.clocks[1].idle_s, 9.0);
  EXPECT_LT(report.clocks[2].idle_s, 1.0);
  EXPECT_LT(report.clocks[3].idle_s, 1.0);
}

TEST(Split, SplitChargesOneParentCollective) {
  Machine m;
  Runtime rt(4, m);
  CostModel cost(m);
  auto report = rt.run([&](Comm& world) { (void)world.split(0); });
  const double expected = cost.all_to_all_broadcast(4, 2 * sizeof(int));
  for (const auto& c : report.clocks) {
    EXPECT_DOUBLE_EQ(c.comm_s, expected);
  }
}

TEST(Split, ExceptionInsideGroupUnblocksEveryone) {
  Runtime rt(4);
  EXPECT_THROW(rt.run([&](Comm& world) {
                 Comm sub = world.split(world.rank() % 2);
                 if (world.rank() == 1) throw std::runtime_error("boom");
                 sub.barrier();
                 world.barrier();
               }),
               std::runtime_error);
}

}  // namespace
}  // namespace pdc::mp
