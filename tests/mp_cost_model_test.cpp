// Unit tests for the hypercube cost model (Table 1 of the paper) and its
// hypercube dimension.

#include <gtest/gtest.h>

#include "mp/cost_model.hpp"
#include "mp/machine.hpp"
#include "mp/topology.hpp"

namespace pdc::mp {
namespace {

TEST(Topology, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(8), 3);
  EXPECT_EQ(ceil_log2(16), 4);
  EXPECT_EQ(ceil_log2(17), 5);
}

TEST(CostModel, Table1Formulas) {
  Machine m;
  CostModel c(m);
  const int p = 16;
  const std::size_t bytes = 4096;
  EXPECT_DOUBLE_EQ(c.all_to_all_broadcast(p, bytes),
                   m.tau * 4 + m.mu * 4096.0 * 15);
  EXPECT_DOUBLE_EQ(c.gather(p, bytes), m.tau * 4 + m.mu * 4096.0 * 16);
  EXPECT_DOUBLE_EQ(c.global_combine(p, bytes), m.tau * 4 + m.mu * 4096.0);
  EXPECT_DOUBLE_EQ(c.prefix_sum(p, bytes), m.tau * 4 + m.mu * 4096.0);
}

TEST(CostModel, SingleProcessorCollectivesAreFree) {
  CostModel c{Machine{}};
  EXPECT_DOUBLE_EQ(c.all_to_all_broadcast(1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(c.global_combine(1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(c.prefix_sum(1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(c.barrier(1), 0.0);
  EXPECT_DOUBLE_EQ(c.all_to_all_personalized(1, 1 << 20), 0.0);
}

TEST(CostModel, CostsGrowWithPAndM) {
  CostModel c{Machine{}};
  EXPECT_LT(c.all_to_all_broadcast(4, 1024), c.all_to_all_broadcast(8, 1024));
  EXPECT_LT(c.all_to_all_broadcast(8, 1024), c.all_to_all_broadcast(8, 2048));
  EXPECT_LT(c.gather(4, 1024), c.gather(8, 1024));
  // Global combine grows only logarithmically in p.
  EXPECT_LT(c.global_combine(4, 1024), c.global_combine(16, 1024));
}

TEST(CostModel, DiskCostsIncludeAccessLatency) {
  Machine m;
  CostModel c(m);
  EXPECT_DOUBLE_EQ(c.disk_read(0), m.disk_access);
  EXPECT_GT(c.disk_read(1 << 20), c.disk_read(1 << 10));
}

// Property sweep: for every primitive, doubling the dimension (p -> p^2
// would double log p) adds exactly one more tau per extra dimension.
class CostScaling : public ::testing::TestWithParam<int> {};

TEST_P(CostScaling, StartupTermScalesWithLogP) {
  Machine m;
  m.mu = 0.0;  // isolate the startup term
  CostModel c(m);
  const int p = GetParam();
  const double lg = ceil_log2(p);
  EXPECT_DOUBLE_EQ(c.all_to_all_broadcast(p, 123), m.tau * lg);
  EXPECT_DOUBLE_EQ(c.gather(p, 123), m.tau * lg);
  EXPECT_DOUBLE_EQ(c.global_combine(p, 123), m.tau * lg);
  EXPECT_DOUBLE_EQ(c.prefix_sum(p, 123), m.tau * lg);
  EXPECT_DOUBLE_EQ(c.barrier(p), m.tau * lg);
}

INSTANTIATE_TEST_SUITE_P(Powers, CostScaling,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

}  // namespace
}  // namespace pdc::mp
