// Collective-operation tests: results match a serial reference for every
// primitive, across a sweep of processor counts, and modeled clocks are
// charged per Table 1 and synchronized at every collective.  Also: the
// trace span each primitive records, and the Runtime's report and error
// propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <source_location>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "mp/lockstep.hpp"
#include "mp/runtime.hpp"
#include "obs/trace.hpp"

namespace pdc::mp {
namespace {

class CollectivesP : public ::testing::TestWithParam<int> {
 protected:
  int p() const { return GetParam(); }
};

TEST_P(CollectivesP, AllReduceSumsOverRanks) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    const auto sum = comm.all_reduce<std::int64_t>(comm.rank() + 1);
    EXPECT_EQ(sum, static_cast<std::int64_t>(p()) * (p() + 1) / 2);
  });
}

TEST_P(CollectivesP, AllReduceWithMinOp) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    const double v = 100.0 - comm.rank();
    const double m = comm.all_reduce<double>(
        v, [](double a, double b) { return std::min(a, b); });
    EXPECT_DOUBLE_EQ(m, 100.0 - (p() - 1));
  });
}

TEST_P(CollectivesP, AllReduceVecIsElementwise) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    std::vector<std::int64_t> mine = {comm.rank(), 1, 2 * comm.rank()};
    auto out = comm.all_reduce_vec<std::int64_t>(mine);
    const std::int64_t ranks = static_cast<std::int64_t>(p()) * (p() - 1) / 2;
    EXPECT_EQ(out[0], ranks);
    EXPECT_EQ(out[1], p());
    EXPECT_EQ(out[2], 2 * ranks);
  });
}

TEST_P(CollectivesP, PrefixSumIsInclusiveScan) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    const auto scan = comm.prefix_sum<std::int64_t>(comm.rank() + 1);
    const std::int64_t r = comm.rank() + 1;
    EXPECT_EQ(scan, r * (r + 1) / 2);
  });
}

TEST_P(CollectivesP, AllToAllBroadcastDeliversEveryBlock) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    // Variable-size blocks: rank r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1),
                          comm.rank());
    auto blocks = comm.all_to_all_broadcast<int>(mine);
    ASSERT_EQ(blocks.size(), static_cast<std::size_t>(p()));
    for (int r = 0; r < p(); ++r) {
      ASSERT_EQ(blocks[r].size(), static_cast<std::size_t>(r + 1));
      for (int v : blocks[r]) EXPECT_EQ(v, r);
    }
  });
}

TEST_P(CollectivesP, AllGatherConcatenatesInRankOrder) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    std::vector<int> mine = {comm.rank() * 2, comm.rank() * 2 + 1};
    auto all = comm.all_gather<int>(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * p()));
    for (int i = 0; i < 2 * p(); ++i) EXPECT_EQ(all[i], i);
  });
}

TEST_P(CollectivesP, GatherOnlyRootReceives) {
  Runtime rt(p());
  const int root = p() - 1;
  rt.run([&](Comm& comm) {
    std::vector<int> mine = {comm.rank() * 10};
    auto got = comm.gather<int>(root, mine);
    if (comm.rank() == root) {
      ASSERT_EQ(got.size(), static_cast<std::size_t>(p()));
      for (int r = 0; r < p(); ++r) {
        ASSERT_EQ(got[r].size(), 1u);
        EXPECT_EQ(got[r][0], r * 10);
      }
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST_P(CollectivesP, BroadcastSendsRootBlockEverywhere) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    std::vector<double> mine;
    if (comm.rank() == 0) mine = {3.5, 4.5, 5.5};
    auto got = comm.broadcast<double>(0, mine);
    EXPECT_EQ(got, (std::vector<double>{3.5, 4.5, 5.5}));
  });
}

TEST_P(CollectivesP, MinLocFindsOwnerOfMinimum) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    // Rank p/2 has the smallest value.
    const int special = p() / 2;
    const double v = (comm.rank() == special) ? -1.0 : comm.rank() + 1.0;
    auto [best, owner] = comm.min_loc<double>(v);
    EXPECT_DOUBLE_EQ(best, -1.0);
    EXPECT_EQ(owner, special);
  });
}

TEST_P(CollectivesP, MinLocBreaksTiesByLowestRank) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    auto [best, owner] = comm.min_loc<double>(7.0);
    EXPECT_DOUBLE_EQ(best, 7.0);
    EXPECT_EQ(owner, 0);
  });
}

TEST_P(CollectivesP, AllToAllRoutesPersonalizedBlocks) {
  Runtime rt(p());
  rt.run([&](Comm& comm) {
    // Rank s sends {s*100 + d} repeated (d+1) times to rank d.
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p()));
    for (int d = 0; d < p(); ++d) {
      out[d].assign(static_cast<std::size_t>(d + 1), comm.rank() * 100 + d);
    }
    auto in = comm.all_to_all<int>(out);
    ASSERT_EQ(in.size(), static_cast<std::size_t>(p()));
    for (int s = 0; s < p(); ++s) {
      ASSERT_EQ(in[s].size(), static_cast<std::size_t>(comm.rank() + 1));
      for (int v : in[s]) EXPECT_EQ(v, s * 100 + comm.rank());
    }
  });
}

TEST_P(CollectivesP, CollectiveSynchronizesModeledClocks) {
  Runtime rt(p());
  auto report = rt.run([&](Comm& comm) {
    comm.clock().add_compute(comm.rank() == 0 ? 5.0 : 1.0);
    comm.barrier();
    // After the barrier every clock must sit at the same modeled time.
    const double t = comm.clock().total();
    const double tmax = comm.all_reduce<double>(
        t, [](double a, double b) { return std::max(a, b); });
    const double tmin = comm.all_reduce<double>(
        t, [](double a, double b) { return std::min(a, b); });
    EXPECT_DOUBLE_EQ(tmax, tmin);
  });
  // Slow rank had no idle; fast ranks idled 4s at the barrier.
  for (std::size_t r = 1; r < report.clocks.size(); ++r) {
    if (p() > 1) {
      EXPECT_NEAR(report.clocks[r].idle_s, 4.0, 1e-9);
    }
  }
  EXPECT_NEAR(report.clocks[0].idle_s, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, CollectivesP,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Collectives, Table1CostsAreChargedExactly) {
  Machine m;
  const int p = 8;
  Runtime rt(p, m);
  CostModel cost(m);
  auto report = rt.run([&](Comm& comm) {
    std::vector<std::byte> block(256);
    (void)comm.all_to_all_broadcast<std::byte>(block);
    (void)comm.all_reduce<double>(1.0);
    (void)comm.prefix_sum<double>(1.0);
  });
  const double expected = cost.all_to_all_broadcast(p, 256) +
                          cost.global_combine(p, sizeof(double)) +
                          cost.prefix_sum(p, sizeof(double));
  for (const auto& c : report.clocks) {
    EXPECT_DOUBLE_EQ(c.comm_s, expected);
  }
}

TEST(Collectives, SingleRankCollectivesAreFreeAndCorrect) {
  Runtime rt(1);
  auto report = rt.run([&](Comm& comm) {
    EXPECT_EQ(comm.all_reduce<int>(42), 42);
    EXPECT_EQ(comm.prefix_sum<int>(7), 7);
    auto blocks =
        comm.all_to_all_broadcast<int>(std::vector<int>{1, 2, 3});
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0], (std::vector<int>{1, 2, 3}));
    comm.barrier();
  });
  EXPECT_DOUBLE_EQ(report.clocks[0].comm_s, 0.0);
}

TEST(Collectives, ManyCollectivesBackToBackDoNotInterfere) {
  Runtime rt(6);
  rt.run([&](Comm& comm) {
    for (int i = 0; i < 200; ++i) {
      const auto s = comm.all_reduce<std::int64_t>(i + comm.rank());
      const std::int64_t ranks = 6L * 5 / 2;
      EXPECT_EQ(s, 6L * i + ranks);
    }
  });
}

TEST(Runtime, RejectsNonPositiveProcessorCount) {
  EXPECT_THROW(Runtime(0), std::invalid_argument);
  EXPECT_THROW(Runtime(-3), std::invalid_argument);
}

TEST(Runtime, ReportBalanceIsOneWhenUniform) {
  Runtime rt(4);
  auto report = rt.run([&](Comm& comm) { comm.clock().add_compute(2.0); });
  EXPECT_DOUBLE_EQ(report.balance(), 1.0);
  EXPECT_DOUBLE_EQ(report.max_compute(), 2.0);
  EXPECT_DOUBLE_EQ(report.parallel_time(), 2.0);
}

TEST(Runtime, ReportBalanceDropsWhenSkewed) {
  Runtime rt(4);
  auto report = rt.run([&](Comm& comm) {
    comm.clock().add_compute(comm.rank() == 0 ? 4.0 : 1.0);
  });
  // mean busy = (4+1+1+1)/4 = 1.75, max = 4.
  EXPECT_DOUBLE_EQ(report.balance(), 1.75 / 4.0);
}

TEST(Runtime, ExceptionInCollectivePropagates) {
  // Ranks 1..3 block in the barrier until rank 0's failure aborts them.
  Runtime rt(4);
  EXPECT_THROW(rt.run([&](Comm& comm) {
                 if (comm.rank() == 0) throw std::logic_error("bad");
                 comm.barrier();
               }),
               std::logic_error);
}

// One traced run at p = 3 calls every public collective and split once,
// each from an explicit call site, and pins what each call records on its
// rank's track: one "comm" span named after the primitive that runs
// (all_gather and split run all_to_all_broadcast, broadcast_value runs
// broadcast), its bytes arg, its (site, comm, seq) stamps, and the
// mp.primitives / mp.primitive_bytes metrics.  Today's quirks are pinned
// too: barrier and all_to_all open their span without bytes, so they never
// feed mp.primitive_bytes; all_to_all then sets bytes to its framed size;
// a non-root broadcast reports 0 bytes.
TEST(Collectives, EveryPrimitiveRecordsOneSpanWithItsBytes) {
  constexpr int p = 3;
  struct Expected {
    std::string_view prim;  ///< span name
    std::uint64_t bytes;    ///< obs::kNoArg: no bytes arg
    bool feeds_bytes;       ///< observed into mp.primitive_bytes
    std::source_location at;
    std::uint64_t comm = kWorldCommId;
  };
  constexpr std::uint64_t kNone = obs::kNoArg;
  std::vector<std::vector<Expected>> expected(p);
  obs::Tracer tracer(p);
  Runtime rt(p);
  rt.run(
      [&](Comm& comm) {
        const auto r = static_cast<std::uint64_t>(comm.rank());
        auto& want = expected[static_cast<std::size_t>(comm.rank())];
        auto at = std::source_location::current();
        comm.barrier(at);
        want.push_back({"barrier", kNone, false, at});

        const std::vector<int> ints(r + 1, 7);
        at = std::source_location::current();
        (void)comm.all_to_all_broadcast<int>(ints, at);
        want.push_back({"all_to_all_broadcast", 4 * (r + 1), true, at});

        at = std::source_location::current();
        (void)comm.all_gather<int>(std::vector<int>{1, 2}, at);
        want.push_back({"all_to_all_broadcast", 8, true, at});

        at = std::source_location::current();
        (void)comm.gather<int>(1, std::vector<int>(r + 2, 3), at);
        want.push_back({"gather", 4 * (r + 2), true, at});

        at = std::source_location::current();
        (void)comm.broadcast<double>(2, std::vector<double>{1, 2, 3}, at);
        want.push_back({"broadcast", r == 2 ? 24u : 0u, true, at});

        at = std::source_location::current();
        (void)comm.broadcast_value<double>(0, 1.5, at);
        want.push_back({"broadcast", r == 0 ? 8u : 0u, true, at});

        at = std::source_location::current();
        (void)comm.all_reduce<std::int64_t>(comm.rank(), {}, at);
        want.push_back({"all_reduce", 8, true, at});

        at = std::source_location::current();
        (void)comm.all_reduce_vec<std::int32_t>(
            std::vector<std::int32_t>{1, 2, 3}, {}, at);
        want.push_back({"all_reduce_vec", 12, true, at});

        at = std::source_location::current();
        (void)comm.prefix_sum<double>(1.0, {}, at);
        want.push_back({"prefix_sum", 8, true, at});

        at = std::source_location::current();
        (void)comm.min_loc<double>(static_cast<double>(r), {}, at);
        want.push_back({"min_loc", 8, true, at});

        // Rank r sends r + d ints to rank d: a frame of p u64 lengths and
        // 3r + 3 ints in all.
        std::vector<std::vector<int>> out(p);
        for (std::size_t d = 0; d < out.size(); ++d) out[d].resize(r + d);
        at = std::source_location::current();
        (void)comm.all_to_all<int>(out, at);
        want.push_back({"all_to_all", p * 8 + (3 * r + 3) * 4, false, at});

        at = std::source_location::current();
        Comm sub = comm.split(comm.rank() % 2, -1, at);
        want.push_back({"all_to_all_broadcast", 8, true, at});

        at = std::source_location::current();
        sub.barrier(at);
        want.push_back({"barrier", kNone, false, at, sub.comm_id()});
        EXPECT_NE(sub.comm_id(), kWorldCommId);
      },
      &tracer);

  for (int r = 0; r < p; ++r) {
    std::vector<const obs::TraceEvent*> spans;
    for (const auto& ev : tracer.events(r)) {
      if (ev.cat == "comm") spans.push_back(&ev);
    }
    const auto& want = expected[static_cast<std::size_t>(r)];
    ASSERT_EQ(spans.size(), want.size()) << "rank " << r;
    std::uint64_t world_seq = 0;
    std::uint64_t fed = 0;
    double fed_bytes = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const obs::TraceEvent& ev = *spans[i];
      const Expected& w = want[i];
      SCOPED_TRACE(testing::Message() << "rank " << r << " call " << i);
      EXPECT_EQ(ev.kind, obs::TraceEvent::Kind::kComplete);
      EXPECT_EQ(ev.name, w.prim);
      EXPECT_EQ(ev.bytes, w.bytes);
      EXPECT_EQ(ev.site,
                lockstep_site_hash(w.at.file_name(), w.at.line(), w.prim));
      EXPECT_EQ(ev.comm, w.comm);
      EXPECT_EQ(ev.seq, w.comm == kWorldCommId ? world_seq++ : 0u);
      if (w.feeds_bytes) {
        ++fed;
        fed_bytes += static_cast<double>(w.bytes);
      }
    }
    const obs::MetricsRegistry& m = tracer.metrics(r);
    EXPECT_EQ(m.counters().at("mp.primitives").value, want.size());
    const obs::HistogramSummary& h = m.histograms().at("mp.primitive_bytes");
    EXPECT_EQ(h.count, fed);
    EXPECT_DOUBLE_EQ(h.sum, fed_bytes);
  }
}

}  // namespace
}  // namespace pdc::mp
