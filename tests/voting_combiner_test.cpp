// The voting combiner's property suite: a seeded 50-instance matrix over
// p in {2,4,8,16} x vote_k in {1,2,4} x {uniform, skewed} class balance
// asserting vote determinism, cross-rank agreement and lockstep
// cleanliness; the exactness condition (2k >= m degenerates to the exact
// attribute-based derivation, down to byte-identical trees); wire-codec
// round trips including quantization; and mid-vote fault behaviour — a
// comm fault during the vote allgather aborts the run before any rank
// interprets a partial vote, and a killed training run resumes to the
// byte-identical tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "clouds/splitters.hpp"
#include "data/agrawal.hpp"
#include "data/dataset.hpp"
#include "fault/fault.hpp"
#include "io/scratch.hpp"
#include "mp/runtime.hpp"
#include "pclouds/combiners.hpp"
#include "pclouds/pclouds.hpp"
#include "pclouds/stats_codec.hpp"

namespace pdc::pclouds {
namespace {

using clouds::CostHooks;
using clouds::NodeStats;
using data::Record;
using fault::CommFault;
using fault::FaultPlan;

struct Workload {
  std::vector<Record> records;
  std::vector<Record> sample;
  NodeStats global;
  clouds::SplitCandidate seq_best;
};

/// Node data with controllable class balance: `skewed` keeps only every
/// eighth label-1 record, so one class dominates ~8:1 and the local
/// nominations see lopsided histograms.
Workload make_workload(int q, std::uint64_t seed, bool skewed) {
  Workload w;
  data::AgrawalGenerator gen({.function = 2, .seed = seed,
                              .label_noise = 0.05});
  const auto raw = gen.make_range(0, skewed ? 8000 : 3000);
  std::size_t ones = 0;
  for (const auto& r : raw) {
    if (skewed && r.label == 1 && (ones++ % 8) != 0) continue;
    w.records.push_back(r);
  }
  for (std::size_t i = 0; i < w.records.size(); i += 10) {
    w.sample.push_back(w.records[i]);
  }
  w.global = NodeStats::with_boundaries(w.sample, q);
  CostHooks hooks;
  clouds::collect_stats(
      [&](const auto& visit) {
        for (const auto& r : w.records) visit(r);
      },
      w.global, hooks);
  w.seq_best = clouds::ss_split(w.global, hooks);
  return w;
}

NodeStats local_stats_of(const Workload& w, int rank, int p, int q) {
  auto stats = NodeStats::with_boundaries(w.sample, q);
  for (std::size_t i = static_cast<std::size_t>(rank); i < w.records.size();
       i += static_cast<std::size_t>(p)) {
    stats.add(w.records[i]);
  }
  return stats;
}

// ---------------------------------------------------- the vote itself ---

TEST(VotingSelect, TwoKCoveringAllAttributesSelectsEveryone) {
  // Nobody nominated anything — the exactness condition still elects the
  // full attribute set.
  const std::vector<VoteNomination> none(10);
  const auto all = select_voted_attributes(none, /*vote_k=*/5);
  ASSERT_EQ(all.size(), static_cast<std::size_t>(data::kNumAttributes));
  for (int a = 0; a < data::kNumAttributes; ++a) {
    EXPECT_EQ(all[static_cast<std::size_t>(a)], a);
  }
}

TEST(VotingSelect, RanksByVotesThenGiniThenId) {
  // attr 3: two votes.  attr 1 and 5: one vote each, attr 5 the better
  // gini.  k=1 -> two candidates: 3 (most votes) and 5 (gini tiebreak).
  std::vector<VoteNomination> noms;
  noms.push_back({3, 0, 0.30});
  noms.push_back({3, 0, 0.31});
  noms.push_back({1, 0, 0.20});
  noms.push_back({5, 0, 0.10});
  const auto picked = select_voted_attributes(noms, /*vote_k=*/1);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], 3);
  EXPECT_EQ(picked[1], 5);
}

TEST(VotingSelect, PaddingAndEqualTiesAreDeterministic) {
  std::vector<VoteNomination> noms;
  noms.push_back({-1, 0, 0.0});  // a rank with nothing splittable
  noms.push_back({7, 0, 0.25});
  noms.push_back({2, 0, 0.25});  // same gini, same votes: lower id wins
  noms.push_back({4, 0, 0.25});
  const auto picked = select_voted_attributes(noms, /*vote_k=*/1);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], 2);
  EXPECT_EQ(picked[1], 4);
  EXPECT_EQ(picked, select_voted_attributes(noms, 1));
}

// ------------------------------------------------ quantization codec ---

TEST(VotingCodec, QuantizeIsIdentityBelowTheBitBudget) {
  for (std::int64_t v = 0; v < 256; ++v) {
    EXPECT_EQ(quantize_count(v, 8), v);
    EXPECT_EQ(quantize_count(v, 0), v);  // 0 = off
  }
}

TEST(VotingCodec, QuantizeRoundsToSignificantBits) {
  EXPECT_EQ(quantize_count(1000, 4), 1024);  // 1000 -> nearest 64-multiple
  EXPECT_EQ(quantize_count(1'000'003, 20), 1'000'003);
  // Monotone: quantization never reorders counts.
  std::int64_t prev = 0;
  for (std::int64_t v = 0; v < 5000; v += 7) {
    const auto q = quantize_count(v, 5);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(VotingCodec, VotedBlobRoundTripsAndUndercutsTheFullBlob) {
  const int q = 32;
  const auto w = make_workload(q, 21, false);
  const std::vector<int> candidates = {0, 3, 7};  // 2 numeric + 1 categorical
  const auto blob = encode_voted_stats(w.global, candidates, /*hist_bits=*/0);

  std::size_t flat_len = static_cast<std::size_t>(data::kNumClasses);
  for (const int attr : candidates) {
    flat_len += voted_attr_len(w.global, attr);
  }
  const auto flat = decode_voted_stats(blob, flat_len);
  std::size_t at = 0;
  for (const auto& f : w.global.hists[0].freq) {
    for (int k = 0; k < data::kNumClasses; ++k) {
      EXPECT_EQ(flat[at++], f[static_cast<std::size_t>(k)]);
    }
  }
  for (const auto& f : w.global.hists[3].freq) {
    for (int k = 0; k < data::kNumClasses; ++k) {
      EXPECT_EQ(flat[at++], f[static_cast<std::size_t>(k)]);
    }
  }
  for (const auto v : w.global.cats[1].flatten()) EXPECT_EQ(flat[at++], v);
  EXPECT_EQ(flat[at++], w.global.counts[0]);
  EXPECT_EQ(flat[at++], w.global.counts[1]);

  // The varint/delta wire is strictly smaller than the raw int64 framing
  // it replaces, and quantization shrinks it further.
  EXPECT_LT(blob.size(), flat_len * sizeof(std::int64_t));
  const auto coarse = encode_voted_stats(w.global, candidates, 4);
  EXPECT_LE(coarse.size(), blob.size());
}

TEST(VotingCodec, QuantizedCountsStayCloseAndPreserveNodeCounts) {
  const auto w = make_workload(24, 22, false);
  const std::vector<int> candidates = {1};
  const auto blob = encode_voted_stats(w.global, candidates, /*hist_bits=*/6);
  const std::size_t flat_len =
      voted_attr_len(w.global, 1) + static_cast<std::size_t>(data::kNumClasses);
  const auto flat = decode_voted_stats(blob, flat_len);
  std::size_t at = 0;
  for (const auto& f : w.global.hists[1].freq) {
    for (int k = 0; k < data::kNumClasses; ++k) {
      const double exact = static_cast<double>(f[static_cast<std::size_t>(k)]);
      const double got = static_cast<double>(flat[at++]);
      // 6 significant bits -> at most ~1.6% relative error.
      EXPECT_NEAR(got, exact, std::max(1.0, exact / 62.0));
    }
  }
  // Node class counts are never quantized: the stop rule sees exact sizes.
  EXPECT_EQ(flat[at++], w.global.counts[0]);
  EXPECT_EQ(flat[at++], w.global.counts[1]);
}

// ------------------------------------- the 50-instance property matrix ---

struct MatrixCase {
  int p;
  int k;
  bool skewed;
  std::uint64_t seed;
};

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  std::uint64_t seed = 100;
  for (const int p : {2, 4, 8, 16}) {
    for (const int k : {1, 2, 4}) {
      for (const bool skewed : {false, true}) {
        cases.push_back({p, k, skewed, seed++});
      }
    }
  }
  // 4 x 3 x 2 = 48; two extra seeds at the headline config round it to 50.
  cases.push_back({4, 2, false, seed++});
  cases.push_back({4, 2, true, seed++});
  return cases;
}

class VotingMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(VotingMatrix, DeterministicLockstepCleanAndNeverBeatsExact) {
  const auto c = GetParam();
  const int q = 32;
  const auto w = make_workload(q, c.seed, c.skewed);

  mp::Runtime rt(c.p);
  rt.set_lockstep(true);  // any rank-divergent vote would throw here
  rt.run([&](mp::Comm& comm) {
    const auto local = local_stats_of(w, comm.rank(), c.p, q);
    VotingDiag d1;
    VotingDiag d2;
    const auto bd1 = derive_voting(comm, local, c.k, /*hist_bits=*/0,
                                   /*want_alive=*/true, {}, &d1);
    const auto bd2 = derive_voting(comm, local, c.k, /*hist_bits=*/0,
                                   /*want_alive=*/true, {}, &d2);

    // Determinism: the same inputs elect the same candidates and derive
    // the same split, alive set and counts, every time.
    EXPECT_EQ(d1.candidates, d2.candidates);
    EXPECT_EQ(bd1.gini_min.valid, bd2.gini_min.valid);
    if (bd1.gini_min.valid) {
      EXPECT_EQ(bd1.gini_min.gini, bd2.gini_min.gini);
      EXPECT_EQ(bd1.gini_min.split, bd2.gini_min.split);
    }
    ASSERT_EQ(bd1.alive.size(), bd2.alive.size());

    // The candidate set is well-formed: sorted unique ids, at most 2k.
    ASSERT_LE(d1.candidates.size(), static_cast<std::size_t>(2 * c.k));
    for (std::size_t i = 0; i < d1.candidates.size(); ++i) {
      EXPECT_GE(d1.candidates[i], 0);
      EXPECT_LT(d1.candidates[i], data::kNumAttributes);
      if (i > 0) {
        EXPECT_LT(d1.candidates[i - 1], d1.candidates[i]);
      }
    }

    // Merging only candidate histograms still recovers the exact global
    // node counts, and the voted split never beats the exact optimum.
    EXPECT_EQ(bd1.counts, w.global.counts);
    ASSERT_TRUE(bd1.gini_min.valid);
    EXPECT_GE(bd1.gini_min.gini + 1e-12, w.seq_best.gini);

    // The vote pays less than the replication exchange it replaces.
    EXPECT_LT(d1.bytes_exchanged, d1.bytes_exact);

    // Cross-rank agreement, field by field (lockstep already proves the
    // collective pattern matched; this proves the payloads did too).
    struct WireResult {  // padding-free: travels through a collective
      double gini;
      std::int64_t attr;
      std::uint64_t alive;
      std::uint64_t cand;
    };
    const WireResult mine{bd1.gini_min.gini,
                          static_cast<std::int64_t>(bd1.gini_min.split.attr),
                          static_cast<std::uint64_t>(bd1.alive.size()),
                          static_cast<std::uint64_t>(d1.candidates.size())};
    const auto all = comm.all_gather<WireResult>(
        std::vector<WireResult>{mine});
    for (const auto& r : all) {
      EXPECT_EQ(r.gini, mine.gini);
      EXPECT_EQ(r.attr, mine.attr);
      EXPECT_EQ(r.alive, mine.alive);
      EXPECT_EQ(r.cand, mine.cand);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Matrix, VotingMatrix,
                         ::testing::ValuesIn(matrix_cases()),
                         [](const auto& param_info) {
                           const MatrixCase& c = param_info.param;
                           return "p" + std::to_string(c.p) + "_k" +
                                  std::to_string(c.k) +
                                  (c.skewed ? "_skewed" : "_uniform") +
                                  "_seed" + std::to_string(c.seed);
                         });

// ----------------------------------------- exactness condition 2k >= m ---

class VotingExactP : public ::testing::TestWithParam<int> {};

TEST_P(VotingExactP, DerivationMatchesAttributeReplicationExactly) {
  const int p = GetParam();
  const int q = 32;
  const auto w = make_workload(q, 31, false);

  mp::Runtime rt(p);
  rt.set_lockstep(true);
  rt.run([&](mp::Comm& comm) {
    const auto local = local_stats_of(w, comm.rank(), p, q);
    const auto exact = derive_replicated(
        comm, CombineMethod::kReplicationAttribute, w.global,
        /*want_alive=*/true, {});
    VotingDiag d;
    const auto voted = derive_voting(comm, local, /*vote_k=*/5,
                                     /*hist_bits=*/0, /*want_alive=*/true,
                                     {}, &d);
    ASSERT_EQ(d.candidates.size(),
              static_cast<std::size_t>(data::kNumAttributes));
    EXPECT_EQ(voted.counts, exact.counts);
    ASSERT_TRUE(voted.gini_min.valid);
    EXPECT_EQ(voted.gini_min.gini, exact.gini_min.gini);
    EXPECT_EQ(voted.gini_min.split, exact.gini_min.split);
    ASSERT_EQ(voted.alive.size(), exact.alive.size());
    for (std::size_t i = 0; i < voted.alive.size(); ++i) {
      EXPECT_EQ(voted.alive[i].attr, exact.alive[i].attr);
      EXPECT_EQ(voted.alive[i].interval, exact.alive[i].interval);
      EXPECT_EQ(voted.alive[i].inside, exact.alive[i].inside);
      EXPECT_EQ(voted.alive[i].gini_est, exact.alive[i].gini_est);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, VotingExactP,
                         ::testing::Values(2, 4, 8, 16));

// ---------------------------------- end-to-end training + fault/resume ---

std::string tree_bytes(const std::vector<clouds::TreeNode>& nodes) {
  std::string out(nodes.size() * sizeof(clouds::TreeNode), '\0');
  if (!nodes.empty()) std::memcpy(out.data(), nodes.data(), out.size());
  return out;
}

pclouds::PcloudsConfig voting_cfg(int vote_k, std::uint64_t checkpoint_every,
                                  bool resume) {
  pclouds::PcloudsConfig cfg;
  cfg.clouds.q_root = 200;
  cfg.memory_bytes = 32 << 10;
  cfg.combiner = CombineMethod::kVoting;
  cfg.vote_k = vote_k;
  cfg.checkpoint_every = checkpoint_every;
  cfg.resume = resume;
  return cfg;
}

std::vector<clouds::TreeNode> run_training(io::ScratchArena& arena, int p,
                                           std::uint64_t n,
                                           const pclouds::PcloudsConfig& cfg,
                                           const FaultPlan* faults) {
  mp::Runtime rt(p);
  rt.set_lockstep(true);
  data::AgrawalGenerator gen({.function = 2, .seed = 17});
  data::DatasetPartition part(n, p);
  data::Sampler sampler(0.05, 4);

  std::vector<clouds::TreeNode> out;
  std::mutex mu;
  rt.run(
      [&](mp::Comm& comm) {
        io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                           &comm.clock(), comm.tracer(), comm.fault());
        data::materialize_local_slice(gen, part, comm.rank(), disk,
                                      "train.dat", 2048);
        const auto sample =
            data::draw_local_sample(gen, part, sampler, comm.rank());
        auto tree = pclouds::pclouds_train(comm, cfg, disk, "train.dat",
                                           sample);
        if (comm.rank() == 0) {
          std::lock_guard lock(mu);
          out = tree.serialize();
        }
      },
      nullptr, faults);
  return out;
}

TEST(VotingTraining, TwoKAboveMGrowsTheByteIdenticalExactTree) {
  const int p = 4;
  const std::uint64_t n = 4000;
  io::ScratchArena a("voting_exact_ref", p);
  io::ScratchArena b("voting_exact", p);
  auto exact_cfg = voting_cfg(5, 0, false);
  exact_cfg.combiner = CombineMethod::kReplicationAttribute;
  const auto reference = run_training(a, p, n, exact_cfg, nullptr);
  const auto voted = run_training(b, p, n, voting_cfg(5, 0, false), nullptr);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(tree_bytes(voted), tree_bytes(reference));
}

TEST(VotingTraining, SmallKIsDeterministicAcrossRuns) {
  const int p = 4;
  const std::uint64_t n = 4000;
  io::ScratchArena a("voting_det_a", p);
  io::ScratchArena b("voting_det_b", p);
  const auto one = run_training(a, p, n, voting_cfg(2, 0, false), nullptr);
  const auto two = run_training(b, p, n, voting_cfg(2, 0, false), nullptr);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(tree_bytes(one), tree_bytes(two));
}

// A comm fault on the vote's own collectives aborts every rank before any
// candidate set is interpreted: the derivation never splits on a partial
// vote.  Op 1 is the nomination allgather, op 2 the voted-stats exchange
// (FaultPlan ops are 1-indexed).
class VotingFaultOp : public ::testing::TestWithParam<int> {};

TEST_P(VotingFaultOp, MidVoteCommFaultAbortsAllRanks) {
  const int op = GetParam();
  const int q = 24;
  const auto w = make_workload(q, 41, false);
  const auto plan =
      FaultPlan::parse("comm_coll:op=" + std::to_string(op));
  const int p = 4;
  mp::Runtime rt(p);
  EXPECT_THROW(
      rt.run(
          [&](mp::Comm& comm) {
            const auto local = local_stats_of(w, comm.rank(), p, q);
            (void)derive_voting(comm, local, 2, 0, true, {});
          },
          nullptr, &plan),
      CommFault);
}

INSTANTIATE_TEST_SUITE_P(VoteOps, VotingFaultOp, ::testing::Values(1, 2));

TEST(VotingFault, KilledVotingRunResumesToTheIdenticalTree) {
  const int p = 4;
  const std::uint64_t n = 4000;

  io::ScratchArena ref_arena("voting_fault_ref", p);
  const auto reference =
      run_training(ref_arena, p, n, voting_cfg(2, 0, false), nullptr);
  ASSERT_FALSE(reference.empty());

  // Kill mid-run on a collective well past the first snapshots — with the
  // voting combiner most collectives *are* vote traffic, so this lands in
  // or around a vote and must leave no partial decision behind.
  io::ScratchArena arena("voting_fault_resume", p);
  const auto plan = FaultPlan::parse("comm_coll:op=50");
  EXPECT_THROW(
      run_training(arena, p, n, voting_cfg(2, 2, false), &plan), CommFault);

  const auto resumed =
      run_training(arena, p, n, voting_cfg(2, 2, true), nullptr);
  EXPECT_EQ(tree_bytes(resumed), tree_bytes(reference));
}

TEST(VotingFault, ResumeUnderADifferentVoteConfigIsRefused) {
  const int p = 2;
  const std::uint64_t n = 3000;
  io::ScratchArena arena("voting_cfg_guard", p);
  const auto plan = FaultPlan::parse("comm_coll:op=40");
  EXPECT_THROW(
      run_training(arena, p, n, voting_cfg(2, 2, false), &plan), CommFault);
  // Same snapshots, different vote_k: decisions would replay differently,
  // so the restore refuses instead of silently diverging.
  EXPECT_THROW(run_training(arena, p, n, voting_cfg(4, 2, true), nullptr),
               std::runtime_error);
}

}  // namespace
}  // namespace pdc::pclouds
