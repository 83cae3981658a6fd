// Fault-injection and checkpoint/restart coverage: the FaultPlan grammar,
// per-rank injector semantics, disk retry-with-backoff, torn writes, the
// versioned snapshot store's crash detection, comm-fault whole-run aborts,
// driver checkpoint/resume byte-identity, and a seeded scenario matrix
// (seed x {disk, comm}) where every killed training run restarts from its
// last snapshot and converges to the fault-free tree.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "data/dataset.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault.hpp"
#include "io/pipeline.hpp"
#include "io/scratch.hpp"
#include "mp/clock.hpp"
#include "mp/cost_model.hpp"
#include "mp/machine.hpp"
#include "mp/runtime.hpp"
#include "pclouds/pclouds.hpp"

namespace pdc {
namespace {

using fault::CheckpointBlob;
using fault::CheckpointStore;
using fault::CommFault;
using fault::DiskAction;
using fault::DiskFault;
using fault::FaultPlan;
using fault::FaultSite;
using fault::FaultSpec;
using fault::RankFault;

// ---- FaultPlan grammar ----

TEST(FaultPlan, ParseRoundTripsThroughToString) {
  const std::string text =
      "disk_write:rank=1:op=5:times=2;comm_coll:op=40;disk_read:rank=0:op=3:"
      "torn";
  const auto plan = FaultPlan::parse(text);
  ASSERT_EQ(plan.specs().size(), 3u);
  EXPECT_EQ(plan.specs()[0].site, FaultSite::kDiskWrite);
  EXPECT_EQ(plan.specs()[0].rank, 1);
  EXPECT_EQ(plan.specs()[0].op, 5u);
  EXPECT_EQ(plan.specs()[0].times, 2);
  EXPECT_EQ(plan.specs()[1].site, FaultSite::kCommCollective);
  EXPECT_EQ(plan.specs()[1].rank, -1);
  EXPECT_TRUE(plan.specs()[2].torn);
  const auto reparsed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("disk_melt:op=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("disk_read:op=zero"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("disk_read:op=0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("disk_read:times=0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("disk_read:torn=yes"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("disk_read:color=red"), std::invalid_argument);
  // Plans that could never fire: the retired p2p site, and ranks below -1
  // or past INT_MAX (4294967297 would otherwise wrap to rank 1).
  EXPECT_THROW(FaultPlan::parse("comm_p2p:op=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("comm_coll:rank=-2:op=1"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("comm_coll:rank=2147483648:op=1"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("comm_coll:rank=4294967297:op=1"),
               std::invalid_argument);
  EXPECT_NO_THROW(FaultPlan::parse("comm_coll:rank=-1:op=1"));
  EXPECT_NO_THROW(FaultPlan::parse("comm_coll:rank=2147483647:op=1"));
}

TEST(FaultPlan, SeededScenariosAreReplayable) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const auto a = FaultPlan::seeded(seed, "disk", 4);
    const auto b = FaultPlan::seeded(seed, "disk", 4);
    EXPECT_EQ(a.to_string(), b.to_string()) << "seed=" << seed;
    const auto c = FaultPlan::seeded(seed, "comm", 4);
    EXPECT_NE(a.to_string(), c.to_string()) << "seed=" << seed;
  }
}

// ---- RankFault semantics ----

TEST(RankFault, FiresOnTheNthOpOfTheChosenRank) {
  const auto plan = FaultPlan::parse("disk_read:rank=1:op=2");
  RankFault wrong(&plan, /*rank=*/0, nullptr);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(wrong.on_disk(/*is_write=*/false, 0.0), DiskAction::kProceed);
  }
  RankFault right(&plan, /*rank=*/1, nullptr);
  EXPECT_EQ(right.on_disk(false, 0.0), DiskAction::kProceed);
  EXPECT_EQ(right.on_disk(false, 0.0), DiskAction::kFailTransient);
  EXPECT_EQ(right.on_disk(false, 0.0), DiskAction::kProceed);
  EXPECT_EQ(right.injected(), 1u);
}

TEST(RankFault, TriggeredSpecDrainsRetriesWithoutAdvancingTheCounter) {
  // times=3: the 2nd logical read fails three consecutive attempts; the
  // attempts must NOT consume ops 3 and 4, so a later spec at op=3 still
  // fires on the third logical request.
  const auto plan = FaultPlan::parse("disk_read:op=2:times=3;disk_read:op=3");
  RankFault f(&plan, 0, nullptr);
  const auto read = [&f] { return f.on_disk(/*is_write=*/false, 0.0); };
  EXPECT_EQ(read(), DiskAction::kProceed);        // op 1
  EXPECT_EQ(read(), DiskAction::kFailTransient);  // op 2, attempt 1
  EXPECT_EQ(read(), DiskAction::kFailTransient);  // op 2, attempt 2
  EXPECT_EQ(read(), DiskAction::kFailTransient);  // op 2, attempt 3
  EXPECT_EQ(read(), DiskAction::kFailTransient);  // op 3 fires
  EXPECT_EQ(read(), DiskAction::kProceed);        // op 4
}

TEST(RankFault, TornWriteFiresOnceAndOnlyOnWrites) {
  const auto plan = FaultPlan::parse("disk_write:op=1:torn");
  RankFault f(&plan, 0, nullptr);
  EXPECT_EQ(f.on_disk(/*is_write=*/false, 0.0), DiskAction::kProceed);
  EXPECT_EQ(f.on_disk(/*is_write=*/true, 0.0), DiskAction::kTear);
  EXPECT_EQ(f.on_disk(/*is_write=*/true, 0.0), DiskAction::kProceed);
}

TEST(RankFault, CommFaultThrowsAtTheMatchingPrimitive) {
  const auto plan = FaultPlan::parse("comm_coll:op=2");
  RankFault f(&plan, 0, nullptr);
  EXPECT_NO_THROW(f.on_comm("barrier"));
  EXPECT_THROW(f.on_comm("all_reduce"), CommFault);
  EXPECT_NO_THROW(f.on_comm("all_reduce"));  // spec spent
}

// ---- LocalDisk retry / torn writes ----

struct DiskRig {
  io::ScratchArena arena{"fault_disk", 1};
  mp::CostModel cost{mp::Machine{}};
  mp::Clock clock{};
};

TEST(DiskFaults, TransientFailureIsAbsorbedByRetries) {
  DiskRig rig;
  const auto plan = FaultPlan::parse("disk_write:op=1:times=2");
  RankFault f(&plan, 0, &rig.clock);
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock, {}, &f);

  const std::vector<int> payload(100, 7);
  disk.write_file<int>("a.dat", payload);  // survives two failed attempts
  EXPECT_EQ(disk.read_file<int>("a.dat"), payload);

  // The two backoffs were charged to the modeled clock as I/O time, on top
  // of the write and read themselves.
  io::ScratchArena clean_arena("fault_disk_clean", 1);
  mp::Clock clean_clock;
  io::LocalDisk clean(clean_arena.rank_dir(0), &rig.cost, &clean_clock);
  clean.write_file<int>("a.dat", payload);
  EXPECT_EQ(clean.read_file<int>("a.dat"), payload);
  EXPECT_GT(rig.clock.snapshot().io_s, clean_clock.snapshot().io_s);
}

TEST(DiskFaults, ExhaustedRetriesThrowDiskFault) {
  DiskRig rig;
  const auto plan = FaultPlan::parse("disk_write:op=1:times=4");
  RankFault f(&plan, 0, &rig.clock);
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock, {}, &f);
  const std::vector<int> payload(10, 1);
  EXPECT_THROW(disk.write_file<int>("a.dat", payload), DiskFault);
}

TEST(DiskFaults, TornWriteLeavesAPartialPrefixOnDisk) {
  DiskRig rig;
  const auto plan = FaultPlan::parse("disk_write:op=1:torn");
  RankFault f(&plan, 0, &rig.clock);
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock, {}, &f);
  std::vector<int> payload(100);
  for (int i = 0; i < 100; ++i) payload[i] = i;
  EXPECT_THROW(disk.write_file<int>("a.dat", payload), DiskFault);
  // Half of the payload made it to the platter before the "crash".
  EXPECT_EQ(disk.file_bytes("a.dat"), payload.size() * sizeof(int) / 2);
}

TEST(DiskFaults, WriteThatGivesUpLeavesTheOldFileUnchanged) {
  // The whole-file request opens (and so truncates) its file only after
  // the fault loop lets it through: a write that runs out of retries
  // never touches the bytes already on disk.
  DiskRig rig;
  const auto plan = FaultPlan::parse("disk_write:op=2:times=4");
  RankFault f(&plan, 0, &rig.clock);
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock, {}, &f);
  std::vector<int> old_bytes(100);
  for (int i = 0; i < 100; ++i) old_bytes[i] = 3 * i + 1;
  disk.write_file<int>("a.dat", old_bytes);  // write op 1
  EXPECT_THROW(disk.write_file<int>("a.dat", std::vector<int>(40, -1)),
               DiskFault);  // write op 2 fails all four attempts
  EXPECT_EQ(f.injected(), 4u);
  EXPECT_EQ(disk.read_file<int>("a.dat"), old_bytes);
  EXPECT_EQ(disk.stats().write_ops, 1u);
}

TEST(DiskFaults, StreamingReaderFaultsPropagate) {
  DiskRig rig;
  const auto plan = FaultPlan::parse("disk_read:op=2:times=6");
  RankFault f(&plan, 0, &rig.clock);
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock, {}, &f);
  std::vector<int> payload(1000);
  disk.write_file<int>("a.dat", payload);
  io::BlockReader<int> reader(disk, "a.dat", /*block_records=*/100);
  std::vector<int> block;
  EXPECT_TRUE(reader.next_block(block));  // read op 1
  EXPECT_THROW((void)reader.next_block(block), DiskFault);
}

// ---- CheckpointStore ----

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  if (!s.empty()) std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(Checkpoint, WriteThenReadRoundTrips) {
  DiskRig rig;
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock);
  CheckpointStore store(disk);
  const std::vector<CheckpointBlob> blobs = {{"state", bytes_of("hello")},
                                             {"task_0", bytes_of("")},
                                             {"task_1", bytes_of("world")}};
  store.write(1, blobs);
  EXPECT_EQ(store.valid_versions(), (std::vector<std::uint64_t>{1}));
  const auto names = store.blob_names(1);
  ASSERT_TRUE(names.has_value());
  EXPECT_EQ(*names, (std::vector<std::string>{"state", "task_0", "task_1"}));
  EXPECT_EQ(store.read_blob(1, "state"), bytes_of("hello"));
  EXPECT_EQ(store.read_blob(1, "task_0"), bytes_of(""));
  EXPECT_EQ(store.read_blob(1, "task_1"), bytes_of("world"));
}

TEST(Checkpoint, CorruptBlobInvalidatesTheSnapshot) {
  DiskRig rig;
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock);
  CheckpointStore store(disk);
  store.write(1, std::vector<CheckpointBlob>{{"state", bytes_of("payload")}});
  ASSERT_EQ(store.valid_versions().size(), 1u);
  // Flip one byte of the blob behind the store's back.
  auto raw = disk.read_file<std::byte>("pdc.ckpt.v1.state");
  raw[0] ^= std::byte{0xff};
  disk.write_file<std::byte>("pdc.ckpt.v1.state", raw);
  EXPECT_TRUE(store.valid_versions().empty());
  EXPECT_THROW(store.read_blob(1, "state"), std::runtime_error);
}

TEST(Checkpoint, ReadingOneBlobReadsTheManifestAndThatBlobOnly) {
  DiskRig rig;
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock);
  CheckpointStore store(disk);
  std::vector<CheckpointBlob> blobs;
  for (int i = 0; i < 32; ++i) {
    blobs.push_back({"task_" + std::to_string(i),
                     bytes_of("blob " + std::to_string(i))});
  }
  store.write(1, blobs);
  const auto before = disk.stats().read_ops;
  EXPECT_EQ(store.read_blob(1, "task_17"), bytes_of("blob 17"));
  // Restoring T blobs costs 2T reads, not one validation of all T per blob.
  EXPECT_EQ(disk.stats().read_ops - before, 2u);
}

TEST(Checkpoint, BlobCorruptedAfterValidationStillThrows) {
  DiskRig rig;
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock);
  CheckpointStore store(disk);
  store.write(1, std::vector<CheckpointBlob>{{"state", bytes_of("payload")},
                                             {"task_0", bytes_of("records")},
                                             {"task_1", bytes_of("more")}});
  ASSERT_EQ(store.valid_versions(), (std::vector<std::uint64_t>{1}));
  auto flipped = disk.read_file<std::byte>("pdc.ckpt.v1.task_0");
  flipped[0] ^= std::byte{0xff};  // same size: only the checksum differs
  disk.write_file<std::byte>("pdc.ckpt.v1.task_0", flipped);
  disk.write_file<std::byte>("pdc.ckpt.v1.task_1", bytes_of("mor"));
  EXPECT_THROW(store.read_blob(1, "task_0"), std::runtime_error);
  EXPECT_THROW(store.read_blob(1, "task_1"), std::runtime_error);
  EXPECT_THROW(store.read_blob(1, "task_2"), std::runtime_error);
}

TEST(Checkpoint, MissingManifestMeansInvalid) {
  DiskRig rig;
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock);
  CheckpointStore store(disk);
  store.write(1, std::vector<CheckpointBlob>{{"state", bytes_of("x")}});
  disk.remove("pdc.ckpt.v1.manifest");
  EXPECT_TRUE(store.valid_versions().empty());
}

TEST(Checkpoint, TornSnapshotWriteLeavesThePreviousSnapshotValid) {
  // The manifest is written last: tear the manifest write of v2 and v1 must
  // still validate while v2 must not.
  DiskRig rig;
  {
    io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock);
    CheckpointStore store(disk);
    store.write(1, std::vector<CheckpointBlob>{{"state", bytes_of("v1")}});
  }
  // v2's files: state blob is write op 1, manifest is write op 2.
  const auto plan = FaultPlan::parse("disk_write:op=2:torn");
  RankFault f(&plan, 0, &rig.clock);
  io::LocalDisk faulty(rig.arena.rank_dir(0), &rig.cost, &rig.clock, {}, &f);
  CheckpointStore store(faulty);
  EXPECT_THROW(
      store.write(2, std::vector<CheckpointBlob>{{"state", bytes_of("v2")}}),
      DiskFault);
  EXPECT_EQ(store.valid_versions(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(store.read_blob(1, "state"), bytes_of("v1"));
}

TEST(Checkpoint, GcKeepsOnlyTheNewestValidVersions) {
  DiskRig rig;
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock);
  CheckpointStore store(disk);
  for (std::uint64_t v = 1; v <= 4; ++v) {
    store.write(v, std::vector<CheckpointBlob>{{"state", bytes_of("x")}});
  }
  store.gc(2);
  EXPECT_EQ(store.valid_versions(), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_FALSE(disk.exists("pdc.ckpt.v1.manifest"));
  EXPECT_FALSE(disk.exists("pdc.ckpt.v2.state"));
  store.clear();
  EXPECT_TRUE(store.valid_versions().empty());
}

// ---- comm faults abort the whole run ----

TEST(CommFaults, InjectedCollectiveFaultAbortsEveryRank) {
  const auto plan = FaultPlan::parse("comm_coll:rank=2:op=3");
  mp::Runtime rt(4);
  EXPECT_THROW(rt.run(
                   [&](mp::Comm& comm) {
                     for (int i = 0; i < 10; ++i) {
                       comm.all_reduce<int>(comm.rank());
                     }
                   },
                   nullptr, &plan),
               CommFault);
}

TEST(CommFaults, PlanForAMissingRankIsRefusedBeforeAnyRankStarts) {
  const auto plan = FaultPlan::parse("disk_read:op=3;comm_coll:rank=4:op=1");
  EXPECT_NO_THROW(plan.check_ranks(5));
  mp::Runtime rt(4);
  std::atomic<bool> ran{false};
  try {
    rt.run([&](mp::Comm&) { ran.store(true); }, nullptr, &plan);
    ADD_FAILURE() << "a plan for rank 4 ran on 4 ranks";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'comm_coll:rank=4:op=1'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(ran.load());
}

// ---- end-to-end: training under faults, checkpoint/restart ----

struct TrainResult {
  std::vector<clouds::TreeNode> tree;
  dc::DcReport dc;
};

std::string tree_bytes(const std::vector<clouds::TreeNode>& nodes) {
  std::string out(nodes.size() * sizeof(clouds::TreeNode), '\0');
  if (!nodes.empty()) std::memcpy(out.data(), nodes.data(), out.size());
  return out;
}

pclouds::PcloudsConfig train_cfg(std::uint64_t checkpoint_every, bool resume) {
  pclouds::PcloudsConfig cfg;
  cfg.clouds.q_root = 200;
  cfg.memory_bytes = 32 << 10;
  cfg.checkpoint_every = checkpoint_every;
  cfg.resume = resume;
  return cfg;
}

/// Adds a rank's injected-fault count to `total` when the rank body exits,
/// normally or by exception.  Declared first in the body, it outlives the
/// rank's disk and its I/O worker, so every disk fault is counted.
struct InjectedTally {
  const mp::Comm& comm;
  std::atomic<std::uint64_t>* total;
  ~InjectedTally() {
    if (total && comm.fault()) total->fetch_add(comm.fault()->injected());
  }
};

/// One training run over `arena` (which may already hold data and
/// snapshots from a previous, killed run).  Throws whatever the injected
/// faults make the runtime throw.  `injected`, when given, receives the
/// faults injected over all ranks, also when the run dies.
TrainResult run_training(io::ScratchArena& arena, int p, std::uint64_t n,
                         const pclouds::PcloudsConfig& cfg,
                         const FaultPlan* faults,
                         std::atomic<std::uint64_t>* injected = nullptr) {
  mp::Runtime rt(p);
  data::AgrawalGenerator gen({.function = 2, .seed = 17});
  data::DatasetPartition part(n, p);
  data::Sampler sampler(0.05, 4);

  TrainResult out;
  std::mutex mu;
  rt.run(
      [&](mp::Comm& comm) {
        const InjectedTally tally{comm, injected};
        io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                           &comm.clock(), comm.tracer(), comm.fault());
        data::materialize_local_slice(gen, part, comm.rank(), disk,
                                      "train.dat", 2048);
        const auto sample =
            data::draw_local_sample(gen, part, sampler, comm.rank());
        pclouds::PcloudsDiag diag;
        auto tree =
            pclouds::pclouds_train(comm, cfg, disk, "train.dat", sample, &diag);
        if (comm.rank() == 0) {
          std::lock_guard lock(mu);
          out.tree = tree.serialize();
          out.dc = diag.dc;
        }
      },
      nullptr, faults);
  return out;
}

TEST(CheckpointRestart, KilledRunResumesToTheIdenticalTree) {
  const int p = 4;
  const std::uint64_t n = 4000;

  io::ScratchArena ref_arena("fault_ref", p);
  const auto reference =
      run_training(ref_arena, p, n, train_cfg(0, false), nullptr);
  ASSERT_FALSE(reference.tree.empty());

  // Kill mid-run: a fatal disk fault well past the first snapshots.
  io::ScratchArena arena("fault_resume", p);
  const auto plan = FaultPlan::parse("disk_read:rank=1:op=60:times=8");
  EXPECT_THROW(run_training(arena, p, n, train_cfg(2, false), &plan),
               DiskFault);

  // Restart over the same disks: picks up the newest common snapshot and
  // finishes with the byte-identical tree.
  const auto resumed =
      run_training(arena, p, n, train_cfg(2, true), nullptr);
  EXPECT_TRUE(resumed.dc.resumed);
  EXPECT_EQ(tree_bytes(resumed.tree), tree_bytes(reference.tree));
}

TEST(CheckpointRestart, CheckpointingDoesNotChangeTheTree) {
  const int p = 2;
  const std::uint64_t n = 3000;
  io::ScratchArena a("fault_nockpt", p);
  io::ScratchArena b("fault_ckpt", p);
  const auto plain = run_training(a, p, n, train_cfg(0, false), nullptr);
  const auto snapshotting = run_training(b, p, n, train_cfg(1, false), nullptr);
  EXPECT_GT(snapshotting.dc.checkpoints, 0u);
  EXPECT_EQ(tree_bytes(snapshotting.tree), tree_bytes(plain.tree));
}

TEST(CheckpointRestart, ResumeWithoutSnapshotsStartsFresh) {
  const int p = 2;
  const std::uint64_t n = 2000;
  io::ScratchArena a("fault_fresh", p);
  const auto r = run_training(a, p, n, train_cfg(2, true), nullptr);
  EXPECT_FALSE(r.dc.resumed);
  ASSERT_FALSE(r.tree.empty());
}

/// Appends the bytes of `v` to `out`.
template <class V>
void append_bytes(std::vector<std::byte>& out, const V& v) {
  const auto bytes = std::as_bytes(std::span(&v, 1));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

// A resumed run writes and later deletes the data file of every task its
// snapshot holds.  The forged snapshot below names a file outside the rank
// directory for its one pending task, in a state laid out as the counters,
// the task and a length-prefixed file name; its checksums are valid, since
// it is written through CheckpointStore.  Whatever the resume makes of it,
// the file outside must survive untouched.
TEST(CheckpointRestart, ForgedSnapshotCannotReachOutsideTheRankDir) {
  const std::uint64_t n = 2000;
  io::ScratchArena arena("fault_forged", 1);
  (void)run_training(arena, 1, n, train_cfg(1, false), nullptr);

  const auto victim = arena.root() / "victim.dat";
  const std::string precious = "records kept outside the rank directory";
  {
    std::ofstream f(victim, std::ios::binary);
    f << precious;
  }

  mp::CostModel cost{mp::Machine{}};
  mp::Clock clock{};
  io::LocalDisk disk(arena.rank_dir(0), &cost, &clock);
  CheckpointStore store(disk);
  const auto versions = store.valid_versions();
  ASSERT_FALSE(versions.empty());
  const auto v = versions.back();

  dc::Task task;
  task.id = 1;
  task.parent = 0;
  task.depth = 1;
  task.global_n = 8;
  const std::string file = "../victim.dat";
  // The next task id, zeroed counters, one queued and no small task, then
  // the task and its file name.
  std::vector<std::byte> state;
  append_bytes(state, std::int64_t{3});
  state.resize(state.size() + sizeof(dc::DcReport));
  append_bytes(state, std::uint64_t{1});
  append_bytes(state, std::uint64_t{0});
  append_bytes(state, task);
  append_bytes(state, std::uint64_t{file.size()});
  const auto name = std::as_bytes(std::span(file));
  state.insert(state.end(), name.begin(), name.end());
  std::vector<std::byte> records(8 * sizeof(data::Record), std::byte{1});
  const std::vector<CheckpointBlob> forged = {
      {"task_0", records},
      {"problem", store.read_blob(v, "problem")},
      {"state", state}};
  store.write(v + 1, forged);

  try {
    (void)run_training(arena, 1, n, train_cfg(1, true), nullptr);
  } catch (const std::exception&) {
    // Rejecting the snapshot is one acceptable outcome.
  }
  std::ifstream f(victim, std::ios::binary);
  ASSERT_TRUE(f.good()) << victim << " was deleted";
  const std::string after{std::istreambuf_iterator<char>(f),
                          std::istreambuf_iterator<char>()};
  EXPECT_EQ(after, precious);
}

// The seeded scenario matrix: 8 seeds x {disk, comm}.  Every scenario
// either rides through (transient faults absorbed by retries; the tree is
// untouched) or dies — and then a restart over the same disks must land on
// the fault-free tree.  Every scenario must inject at least one fault: a
// plan that never fires would pass without testing anything.  The site
// class is a std::string, not a const char*: gtest prints a char pointer
// with its address, and that address would end up in the discovered ctest
// name and change with every build.
class FaultMatrix
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string>> {
};

TEST_P(FaultMatrix, EveryScenarioEndsInTheFaultFreeTree) {
  const auto [seed, site_class] = GetParam();
  const int p = 4;
  const std::uint64_t n = 4000;

  static const std::string reference = [&] {
    io::ScratchArena ref_arena("fault_matrix_ref", p);
    return tree_bytes(
        run_training(ref_arena, p, n, train_cfg(0, false), nullptr).tree);
  }();

  const auto plan = FaultPlan::seeded(seed, site_class, p);
  io::ScratchArena arena("fault_matrix", p);
  std::atomic<std::uint64_t> injected{0};
  bool died = false;
  std::string outcome;
  try {
    outcome = tree_bytes(
        run_training(arena, p, n, train_cfg(2, false), &plan, &injected).tree);
  } catch (const DiskFault&) {
    died = true;
  } catch (const CommFault&) {
    died = true;
  }
  if (died) {
    outcome = tree_bytes(
        run_training(arena, p, n, train_cfg(2, true), nullptr).tree);
  }
  EXPECT_GT(injected.load(), 0u) << "plan " << plan.to_string();
  EXPECT_EQ(outcome, reference)
      << "seed=" << seed << " class=" << site_class << " died=" << died;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FaultMatrix,
    ::testing::Combine(::testing::Range<std::uint64_t>(0, 8),
                       ::testing::Values(std::string("disk"),
                                         std::string("comm"))),
    [](const auto& param_info) {
      return std::get<1>(param_info.param) + "_seed" +
             std::to_string(std::get<0>(param_info.param));
    });

}  // namespace
}  // namespace pdc
