// Collective lockstep auditor (mp/lockstep.hpp): a deliberately divergent
// collective must abort the run with a per-rank divergence report instead
// of exchanging mismatched payloads; a uniform program must be untouched
// (bit-identical modeled clocks with auditing on and off).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mp/lockstep.hpp"
#include "mp/runtime.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace pdc {
namespace {

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

mp::LockstepReport run_expecting_divergence(
    mp::Runtime& rt, const std::function<void(mp::Comm&)>& body,
    obs::Tracer* tracer = nullptr) {
  rt.set_lockstep(true);
  try {
    rt.run(body, tracer);
  } catch (const mp::LockstepError& e) {
    return e.report();
  }
  ADD_FAILURE() << "divergent collective was not detected";
  return {};
}

TEST(Lockstep, CatchesDivergentPrimitive) {
  mp::Runtime rt(4);
  const auto report = run_expecting_divergence(rt, [](mp::Comm& comm) {
    comm.barrier();
    if (comm.rank() == 2) {
      comm.all_reduce(1);  // diverges: everyone else re-enters barrier
    } else {
      comm.barrier();
    }
  });

  ASSERT_EQ(report.ranks.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(report.ranks[static_cast<std::size_t>(r)].rank, r);
    EXPECT_EQ(report.ranks[static_cast<std::size_t>(r)].global_rank, r);
    EXPECT_EQ(report.ranks[static_cast<std::size_t>(r)].seq, 1u);
  }
  EXPECT_EQ(report.ranks[2].prim, "all_reduce");
  EXPECT_EQ(report.ranks[0].prim, "barrier");
  EXPECT_NE(report.ranks[2].site, report.ranks[0].site);
  EXPECT_EQ(report.ranks[0].site, report.ranks[1].site);
  EXPECT_EQ(report.ranks[0].site, report.ranks[3].site);
  EXPECT_TRUE(contains(report.ranks[0].where, "mp_lockstep_test.cpp"));
}

TEST(Lockstep, CatchesSamePrimitiveFromDifferentSites) {
  mp::Runtime rt(2);
  const auto report = run_expecting_divergence(rt, [](mp::Comm& comm) {
    if (comm.rank() == 0) {
      comm.barrier();  // site A
    } else {
      comm.barrier();  // site B: same primitive, different line
    }
  });

  ASSERT_EQ(report.ranks.size(), 2u);
  EXPECT_EQ(report.ranks[0].prim, "barrier");
  EXPECT_EQ(report.ranks[1].prim, "barrier");
  EXPECT_NE(report.ranks[0].site, report.ranks[1].site);
  EXPECT_NE(report.ranks[0].where, report.ranks[1].where);
}

TEST(Lockstep, ErrorMessageListsEveryRank) {
  mp::Runtime rt(3);
  rt.set_lockstep(true);
  try {
    rt.run([](mp::Comm& comm) {
      if (comm.rank() == 0) {
        comm.prefix_sum(1);
      } else {
        comm.min_loc(3.5);
      }
    });
    FAIL() << "divergent collective was not detected";
  } catch (const mp::LockstepError& e) {
    const std::string what = e.what();
    EXPECT_TRUE(contains(what, "lockstep divergence")) << what;
    EXPECT_TRUE(contains(what, "rank 0")) << what;
    EXPECT_TRUE(contains(what, "rank 1")) << what;
    EXPECT_TRUE(contains(what, "rank 2")) << what;
    EXPECT_TRUE(contains(what, "prefix_sum")) << what;
    EXPECT_TRUE(contains(what, "min_loc")) << what;
  }
}

TEST(Lockstep, AuditsSplitSubgroupsIndependently) {
  // Subgroups run different (internally uniform) programs: fine.  Then one
  // subgroup diverges internally: caught, and ranks are reported with both
  // subgroup and global ids.
  mp::Runtime rt(4);
  rt.set_lockstep(true);
  mp::SpmdReport ok = rt.run([](mp::Comm& comm) {
    auto sub = comm.split(comm.rank() % 2);
    if (comm.rank() % 2 == 0) {
      sub.all_reduce(1);
    } else {
      sub.barrier();
      sub.barrier();
    }
  });
  EXPECT_EQ(ok.clocks.size(), 4u);

  const auto report = run_expecting_divergence(rt, [](mp::Comm& comm) {
    auto sub = comm.split(comm.rank() % 2);
    if (comm.rank() % 2 == 1) {
      if (comm.rank() == 3) {
        sub.all_reduce(2);
      } else {
        sub.barrier();
      }
    } else {
      sub.barrier();
    }
  });
  ASSERT_EQ(report.ranks.size(), 2u);  // the odd subgroup: ranks 1 and 3
  EXPECT_EQ(report.ranks[0].global_rank, 1);
  EXPECT_EQ(report.ranks[1].global_rank, 3);
  EXPECT_EQ(report.ranks[1].prim, "all_reduce");
}

TEST(Lockstep, UniformProgramIsUntouchedByAuditing) {
  const auto body = [](mp::Comm& comm) {
    comm.barrier();
    const int sum = comm.all_reduce(comm.rank() + 1);
    const auto sizes = comm.all_gather(
        std::span<const int>(&sum, 1));
    comm.broadcast_value(0, sizes.front());
    comm.prefix_sum(2.0);
  };
  mp::Runtime rt(4);
  rt.set_lockstep(false);
  const auto off = rt.run(body);
  rt.set_lockstep(true);
  const auto on = rt.run(body);

  ASSERT_EQ(off.clocks.size(), on.clocks.size());
  for (std::size_t r = 0; r < off.clocks.size(); ++r) {
    EXPECT_EQ(off.clocks[r].compute_s, on.clocks[r].compute_s);
    EXPECT_EQ(off.clocks[r].comm_s, on.clocks[r].comm_s);
    EXPECT_EQ(off.clocks[r].io_s, on.clocks[r].io_s);
    EXPECT_EQ(off.clocks[r].idle_s, on.clocks[r].idle_s);
  }
}

TEST(Lockstep, DivergenceIsRoutedThroughObservability) {
  mp::Runtime rt(2);
  obs::Tracer tracer(2);
  run_expecting_divergence(
      rt,
      [](mp::Comm& comm) {
        if (comm.rank() == 0) {
          comm.all_reduce(1);
        } else {
          comm.barrier();
        }
      },
      &tracer);

  const auto merged = tracer.merged_metrics();
  EXPECT_EQ(merged.counters().at("lockstep.divergence").value, 2u);
  for (int r = 0; r < 2; ++r) {
    bool saw_instant = false;
    for (const auto& ev : tracer.events(r)) {
      if (ev.name == "lockstep.divergence") saw_instant = true;
    }
    EXPECT_TRUE(saw_instant) << "rank " << r;
  }
}

TEST(Lockstep, ReportRoundTripsThroughRunReportJson) {
  obs::RunReport run;
  run.classifier = "pclouds";
  run.nprocs = 2;
  run.records = 100;
  run.lockstep_divergence.push_back(
      {0, 0, 0x1234abcd5678ef01ull, 7, "barrier", "driver.hpp:42"});
  run.lockstep_divergence.push_back(
      {1, 3, 0xfeedface00c0ffeeull, 7, "all_reduce", "combiners.cpp:99"});

  const auto back = obs::RunReport::from_json(run.to_json().dump());
  ASSERT_EQ(back.lockstep_divergence.size(), 2u);
  EXPECT_EQ(back.lockstep_divergence[0].site, 0x1234abcd5678ef01ull);
  EXPECT_EQ(back.lockstep_divergence[0].prim, "barrier");
  EXPECT_EQ(back.lockstep_divergence[1].global_rank, 3);
  EXPECT_EQ(back.lockstep_divergence[1].seq, 7u);
  EXPECT_EQ(back.lockstep_divergence[1].where, "combiners.cpp:99");

  obs::RunReport clean;
  clean.classifier = "pclouds";
  clean.nprocs = 1;
  EXPECT_EQ(clean.to_json().find("lockstep_divergence"), nullptr);
}

TEST(Lockstep, SiteHashIsStable) {
  const auto h1 = mp::lockstep_site_hash("a/b/comm.hpp", 120, "barrier");
  const auto h2 = mp::lockstep_site_hash("c/d/comm.hpp", 120, "barrier");
  EXPECT_EQ(h1, h2) << "directory part must not affect the site id";
  EXPECT_NE(h1, mp::lockstep_site_hash("comm.hpp", 121, "barrier"));
  EXPECT_NE(h1, mp::lockstep_site_hash("comm.hpp", 120, "all_reduce"));
}

}  // namespace
}  // namespace pdc
