// Critical-path profiler tests: a hand-built 3-rank DAG whose critical
// path is worked out by hand (the walk must match it exactly), fixed-DAG
// replay under counterfactual scales, attribution closure on real pclouds
// runs at p in {1, 4, 16}, clock-reset truncation, and the observer
// guarantee (a profiled run and an unprofiled run produce byte-identical
// trees and modeled clocks).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "io/scratch.hpp"
#include "mp/runtime.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/span_names.hpp"
#include "obs/trace.hpp"
#include "pclouds/pclouds.hpp"

namespace pdc::obs {
namespace {

// ---------------------------------------------------- hand-built graph ---

// Three ranks, two collectives: one over all three ranks (communicator
// 42) and a two-member one between ranks 0 and 2 (communicator 43):
//
//   r0: compute [0,1]   world pub@1 ]      compute   pair pub@4.0 ]  compute
//   r1: compute [0,3]   world pub@3 ] 3.5  compute (ends 4.1)
//   r2: compute [0,2]   world pub@2 ]      compute   pair pub@3.8 ]  compute
//
// The world collective settles at t_max=3 (rank 1 published last) + cost
// 0.5.  Rank 0 then computes [3.5,4.0] and rank 2 [3.5,3.8] before they
// meet in the pair collective, which settles at t_max=4.0 (rank 0
// published last) + cost 0.5 = 4.5.  Rank 0 computes to 4.6, rank 2 to
// 5.0 — the makespan.
//
// Exact critical path, walked backward from t=5.0 on rank 2; each
// collective jumps to the member that published last:
//   r2 compute [4.5,5.0] -> r2 comm(pair) [4.0,4.5] -> jump to rank 0
//   r0 compute [3.5,4.0] -> r0 comm(world) [3.0,3.5] -> jump to rank 1
//   r1 compute [0,3].
CritGraph hand_graph() {
  constexpr std::uint64_t kWorld = 42;
  constexpr std::uint64_t kPair = 43;
  std::vector<RankTimeline> ranks(3);

  const auto coll = [](std::uint64_t comm, double publish, double end) {
    CritOp op;
    op.kind = CritOp::Kind::kCollective;
    op.begin_s = publish;
    op.end_s = end;
    op.comm = comm;
    op.seq = 0;
    op.name = "all_reduce";
    return op;
  };
  ranks[0].ops.push_back(coll(kWorld, 1.0, 3.5));
  ranks[1].ops.push_back(coll(kWorld, 3.0, 3.5));
  ranks[2].ops.push_back(coll(kWorld, 2.0, 3.5));
  ranks[0].ops.push_back(coll(kPair, 4.0, 4.5));
  ranks[2].ops.push_back(coll(kPair, 3.8, 4.5));

  ranks[0].end_s = 4.6;
  ranks[1].end_s = 4.1;
  ranks[2].end_s = 5.0;  // the compute gaps are filled in automatically
  return CritGraph::from_timelines(std::move(ranks));
}

TEST(CritPath, HandBuiltDagYieldsTheExactCriticalPath) {
  const CritGraph g = hand_graph();
  EXPECT_DOUBLE_EQ(g.parallel_time_s(), 5.0);

  const auto path = g.critical_path();
  ASSERT_EQ(path.size(), 5u);

  const struct {
    int rank;
    double begin, end;
    CritBucket bucket;
  } expected[] = {
      {2, 4.5, 5.0, CritBucket::kCompute}, {2, 4.0, 4.5, CritBucket::kComm},
      {0, 3.5, 4.0, CritBucket::kCompute}, {0, 3.0, 3.5, CritBucket::kComm},
      {1, 0.0, 3.0, CritBucket::kCompute},
  };
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(path[i].rank, expected[i].rank) << "segment " << i;
    EXPECT_DOUBLE_EQ(path[i].begin_s, expected[i].begin) << "segment " << i;
    EXPECT_DOUBLE_EQ(path[i].end_s, expected[i].end) << "segment " << i;
    EXPECT_EQ(path[i].bucket, expected[i].bucket) << "segment " << i;
  }

  // The path is time-continuous and spans [0, parallel_time_s] exactly.
  EXPECT_DOUBLE_EQ(path.front().end_s, g.parallel_time_s());
  EXPECT_DOUBLE_EQ(path.back().begin_s, 0.0);
  double sum = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_DOUBLE_EQ(path[i].begin_s, path[i + 1].end_s);
  }
  for (const auto& seg : path) sum += seg.end_s - seg.begin_s;
  EXPECT_NEAR(sum, g.parallel_time_s(), 1e-12);
}

TEST(CritPath, ReplayReproducesAndProjectsTheHandBuiltDag) {
  const CritGraph g = hand_graph();

  // Baseline replay reproduces the recorded makespan.
  EXPECT_NEAR(g.replay({}), 5.0, 1e-12);

  // Zero-cost communication, worked out by hand: the world collective
  // still synchronizes at t_max=3 (set by rank 1's compute) and now ends
  // there.  Rank 0 reaches the pair collective at 3.5 and rank 2 at 3.3,
  // so it ends at 3.5.  Then rank 0 computes to 3.6, rank 1 to 3.0 + 0.6
  // = 3.6 and rank 2 to 3.5 + 0.5 = 4.0: the makespan.
  ReplayScales comm_free;
  comm_free.comm = 0.0;
  EXPECT_NEAR(g.replay(comm_free), 4.0, 1e-12);

  // No io ops anywhere: the disks->infinity projection changes nothing.
  ReplayScales io_free;
  io_free.io = 0.0;
  EXPECT_NEAR(g.replay(io_free), 5.0, 1e-12);

  // Busy time is pure compute here: r0 = 1+0.5+0.1 ([0,1], [3.5,4.0],
  // [4.5,4.6]), r1 = 3+0.6, r2 = 2+0.3+0.5 ([0,2], [3.5,3.8], [4.5,5.0]).
  EXPECT_NEAR(g.rank_busy_s(0), 1.6, 1e-12);
  EXPECT_NEAR(g.rank_busy_s(1), 3.6, 1e-12);
  EXPECT_NEAR(g.rank_busy_s(2), 2.8, 1e-12);
}

TEST(CritPath, ClockResetMarkerCutsThePreMeasurementPrefix) {
  Tracer tracer(1);
  mp::Clock clock;
  RankTracer rt = tracer.rank(0, &clock);

  {  // pre-measurement activity in the soon-to-be-discarded coordinates
    SpanGuard sp(rt, span_names::kMaterialize, "setup");
    clock.add_io(7.0);
  }
  clock.reset();
  rt.instant(span_names::kClockReset, "marker");
  {
    SpanGuard sp(rt, span_names::kDiskRead, "io");
    clock.add_io(1.0);
  }
  clock.add_compute(0.5);

  const std::vector<mp::ClockSnapshot> clocks = {clock.snapshot()};
  const CritGraph g = CritGraph::from_trace(tracer, clocks);
  EXPECT_DOUBLE_EQ(g.parallel_time_s(), 1.5);
  double io = 0.0, compute = 0.0;
  for (const auto& seg : g.critical_path()) {
    (seg.bucket == CritBucket::kIo ? io : compute) +=
        seg.end_s - seg.begin_s;
  }
  EXPECT_DOUBLE_EQ(io, 1.0);
  EXPECT_DOUBLE_EQ(compute, 0.5);
}

// ------------------------------------------------------- real runs ------

struct PcloudsOutcome {
  std::string tree_text;
  std::vector<mp::ClockSnapshot> clocks;
};

PcloudsOutcome run_pclouds(int procs, Tracer* tracer) {
  io::ScratchArena arena(tracer ? "prof_on" : "prof_off", procs);
  mp::Runtime rt(procs);
  data::AgrawalGenerator gen({.function = 2, .seed = 5});
  data::DatasetPartition part(8000, procs);
  data::Sampler sampler(0.05, 99);

  PcloudsOutcome out;
  std::mutex mu;
  const auto report = rt.run(
      [&](mp::Comm& comm) {
        io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                           &comm.clock(), comm.tracer());
        data::materialize_local_slice(gen, part, comm.rank(), disk,
                                      "train.dat", 1024);
        const auto sample =
            data::draw_local_sample(gen, part, sampler, comm.rank());
        pclouds::PcloudsConfig cfg;
        cfg.clouds.method = clouds::SplitMethod::kSSE;
        cfg.clouds.q_root = 400;
        cfg.memory_bytes = 64 * 1024;
        auto tree =
            pclouds::pclouds_train(comm, cfg, disk, "train.dat", sample);
        if (comm.rank() == 0) {
          std::lock_guard lock(mu);
          out.tree_text = tree.to_string();
        }
      },
      tracer);
  out.clocks = report.clocks;
  return out;
}

TEST(Profile, AttributionClosesOnRealRunsAcrossP) {
  double prev_comm_share = -1.0;
  for (const int p : {1, 4, 16}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    Tracer tracer(p);
    const PcloudsOutcome out = run_pclouds(p, &tracer);
    const Profile prof = build_profile(tracer, out.clocks);

    const double t = prof.parallel_time_s;
    ASSERT_GT(t, 0.0);
    const double tol = 1e-9 * std::max(1.0, t);

    // Every critical-path second lands in exactly one bucket: the four
    // bucket totals close to the makespan, and so does every breakdown.
    EXPECT_NEAR(prof.crit.total(), t, tol);
    double phase_sum = 0.0;
    for (const auto& [name, slice] : prof.by_phase) {
      phase_sum += slice.total();
    }
    EXPECT_NEAR(phase_sum, t, tol);
    double depth_sum = 0.0;
    for (const auto& [key, slice] : prof.by_depth) {
      depth_sum += slice.total();
    }
    EXPECT_NEAR(depth_sum, t, tol);

    // The path is continuous from parallel_time_s back to zero.
    ASSERT_FALSE(prof.segments.empty());
    EXPECT_NEAR(prof.segments.front().end_s, t, tol);
    EXPECT_NEAR(prof.segments.back().begin_s, 0.0, tol);
    for (std::size_t i = 0; i + 1 < prof.segments.size(); ++i) {
      EXPECT_DOUBLE_EQ(prof.segments[i].begin_s,
                       prof.segments[i + 1].end_s);
    }

    // Baseline replay reproduces the recorded makespan; a free resource
    // can only help.
    EXPECT_NEAR(prof.t_baseline_s, t, tol);
    EXPECT_LE(prof.t_comm_free_s, t + tol);
    EXPECT_LE(prof.t_io_free_s, t + tol);
    EXPECT_GE(prof.headroom_comm, 1.0 - 1e-9);
    EXPECT_GE(prof.headroom_io, 1.0 - 1e-9);

    // Communication's share of the critical path grows with p (the
    // paper's scaling story: sync points multiply with the processor
    // count while per-rank work shrinks).
    const double comm_share = prof.crit.comm_s / t;
    EXPECT_GE(comm_share, prev_comm_share - 1e-9);
    prev_comm_share = comm_share;

    // The report is valid JSON with the pinned schema tag, and the
    // overlay renders one span per path segment.
    const Json doc = Json::parse(prof.to_json().dump());
    EXPECT_EQ(doc.at("schema").as_string(), "pdc.profile.v1");
    EXPECT_EQ(overlay_events(prof).size(), prof.segments.size());
  }
  // At p=16 the zero-comm what-if buys real speedup.
  EXPECT_GT(prev_comm_share, 0.0);
}

TEST(Profile, ProfiledRunIsByteIdenticalToUnprofiledRun) {
  const PcloudsOutcome plain = run_pclouds(4, nullptr);
  Tracer tracer(4);
  const PcloudsOutcome profiled = run_pclouds(4, &tracer);
  // Building the profile is a pure read of the trace and clocks.
  const Profile prof = build_profile(tracer, profiled.clocks);
  EXPECT_GT(prof.parallel_time_s, 0.0);

  EXPECT_EQ(plain.tree_text, profiled.tree_text);
  ASSERT_EQ(plain.clocks.size(), profiled.clocks.size());
  for (std::size_t r = 0; r < plain.clocks.size(); ++r) {
    EXPECT_EQ(plain.clocks[r].compute_s, profiled.clocks[r].compute_s);
    EXPECT_EQ(plain.clocks[r].comm_s, profiled.clocks[r].comm_s);
    EXPECT_EQ(plain.clocks[r].io_s, profiled.clocks[r].io_s);
    EXPECT_EQ(plain.clocks[r].idle_s, profiled.clocks[r].idle_s);
    EXPECT_EQ(plain.clocks[r].io_hidden_s, profiled.clocks[r].io_hidden_s);
  }
}

}  // namespace
}  // namespace pdc::obs
