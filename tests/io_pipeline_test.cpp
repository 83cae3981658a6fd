// The async double-buffered I/O pipeline against its synchronous oracle,
// the same BlockReader/BlockWriter at queue depth 0.
//
//  - Property sweep: for 100 random (block size, queue depth, record count)
//    instances — including empty files and files smaller than one block —
//    the pipelined streams move byte-identical data and issue the same
//    requests as the depth-0 streams.  Task files whose pages were freed
//    and taken again, and one reader with two writers interleaved on one
//    disk, read back what was written at depth 0 and 3.
//  - Modeled time: overlap accounting never charges more than the
//    synchronous path, and a compute-heavy consumer hides I/O (io_hidden).
//  - Whole-classifier differential: pCLOUDS and pSPRINT grow byte-identical
//    trees (and byte-identical saved models) with the pipeline on and off.
//  - Fault matrix: faults whose Nth-op trigger lands on the prefetch
//    thread are injected, retried and charged exactly like synchronous
//    ones; a spent retry budget surfaces as DiskFault at the reap point,
//    and requests queued behind the failure are skipped, not executed.
//    A parity table runs eight fault plans at depth 0 and depth 2, on a
//    kept and on a task file, and compares data, disk bytes, exceptions
//    (also from a call made again on the dead stream), injector count,
//    IoStats and the fault.disk_* counters.
//  - Perf regression (label: perf): at p = 8 the pipelined build is
//    strictly faster in modeled time with nonzero hidden I/O.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

#include "clouds/model_io.hpp"
#include "data/dataset.hpp"
#include "fault/fault.hpp"
#include "io/local_disk.hpp"
#include "io/pipeline.hpp"
#include "io/scratch.hpp"
#include "mp/runtime.hpp"
#include "obs/trace.hpp"
#include "pclouds/pclouds.hpp"
#include "sprint/sprint.hpp"

namespace pdc {
namespace {

namespace fs = std::filesystem;

struct Rig {
  explicit Rig(const char* tag, fault::RankFault* fault = nullptr,
               obs::Tracer* tracer = nullptr)
      : arena(tag, 1),
        cost(mp::Machine::sp2_like()),
        disk(arena.rank_dir(0), &cost, &clock,
             tracer ? tracer->rank(0, &clock) : obs::RankTracer{}, fault) {}

  io::ScratchArena arena;
  mp::CostModel cost;
  mp::Clock clock;
  io::LocalDisk disk;
};

io::PipelineConfig depth_of(std::size_t depth) {
  io::PipelineConfig cfg;
  cfg.queue_depth = depth;
  return cfg;
}

std::vector<std::int64_t> read_all(io::LocalDisk& disk,
                                   const std::string& name, std::size_t block,
                                   std::size_t depth) {
  io::BlockReader<std::int64_t> r(disk, name, block, depth_of(depth));
  std::vector<std::int64_t> all;
  std::vector<std::int64_t> blk;
  while (r.next_block(blk)) all.insert(all.end(), blk.begin(), blk.end());
  return all;
}

// ---- Property sweep: random instances, pipelined == synchronous ----

TEST(PipelineProperty, RandomInstancesMatchSynchronousByteForByte) {
  std::mt19937_64 rng(2026);
  Rig sync_rig("pipe_prop_sync");
  Rig pipe_rig("pipe_prop_async");
  for (int iter = 0; iter < 100; ++iter) {
    // First instances pin the edge cases: empty file, single record, and a
    // file smaller than one block; the rest are random.
    const std::size_t n = iter == 0   ? 0
                          : iter == 1 ? 1
                          : iter == 2 ? 5
                                      : rng() % 4000;
    const std::size_t block = iter == 2 ? 64 : 1 + rng() % 512;
    const std::size_t depth = 1 + rng() % 4;
    std::vector<std::int64_t> data(n);
    for (auto& v : data) v = static_cast<std::int64_t>(rng());

    const std::string name = "f" + std::to_string(iter) + ".bin";

    // Write: the depth-0 BlockWriter vs a pipelined one.
    {
      io::BlockWriter<std::int64_t> w(sync_rig.disk, name, block);
      for (auto v : data) w.append(v);
    }
    {
      io::BlockWriter<std::int64_t> w(pipe_rig.disk, name, block,
                                      depth_of(depth));
      for (auto v : data) w.append(v);
      EXPECT_EQ(w.count(), n);
      w.close();
    }
    EXPECT_EQ(pipe_rig.disk.read_file<std::int64_t>(name), data)
        << "write iter=" << iter << " n=" << n << " block=" << block
        << " depth=" << depth;
    EXPECT_EQ(pipe_rig.disk.file_bytes(name), sync_rig.disk.file_bytes(name));

    // Read back pipelined from both disks; both must equal the original.
    EXPECT_EQ(read_all(pipe_rig.disk, name, block, depth), data)
        << "read iter=" << iter << " n=" << n << " block=" << block
        << " depth=" << depth;
  }
  // Same logical requests -> same real op counts and byte totals.
  EXPECT_EQ(pipe_rig.disk.stats().write_ops, sync_rig.disk.stats().write_ops);
  EXPECT_EQ(pipe_rig.disk.stats().bytes_written,
            sync_rig.disk.stats().bytes_written);
}

constexpr auto kScratch = io::FileKind::kScratch;

TEST(PipelineProperty, ReusedPagesHoldOnlyTheirOwnRecords) {
  // A removed 4,161-record task file's pages come back for the next one;
  // the stream must not read its predecessor's tail, at any depth.
  for (const std::size_t depth : {0u, 3u}) {
    Rig rig("pipe_reuse");
    std::vector<std::int64_t> parent(4161);
    std::iota(parent.begin(), parent.end(), 1'000'000);
    {
      io::BlockWriter<std::int64_t> w(rig.disk, "parent", 1040,
                                      depth_of(depth), kScratch);
      w.append(parent);
      w.close();
    }
    rig.disk.remove("parent");
    const auto freed = rig.disk.scratch().free_pages();
    ASSERT_EQ(freed, 9u);  // 33,288 bytes
    std::vector<std::int64_t> child(1047);
    std::iota(child.begin(), child.end(), 7);
    {
      io::BlockWriter<std::int64_t> w(rig.disk, "child", 256,
                                      depth_of(depth), kScratch);
      w.append(child);
      w.close();
    }
    EXPECT_EQ(rig.disk.scratch().free_pages(), freed - 3) << "depth " << depth;
    EXPECT_EQ(rig.disk.file_bytes("child"), child.size() * sizeof(child[0]))
        << "depth " << depth;
    EXPECT_EQ(read_all(rig.disk, "child", 300, depth), child)
        << "depth " << depth;
  }
}

TEST(PipelineProperty, InterleavedStreamsOnOneDiskReadBackWhatWasWritten) {
  // Partition steps on one disk: one reader streams the parent while two
  // writers take pages alternately, then the parent's pages are freed for
  // the next step.  Every file reads back what was written, at depth 0 and
  // 3, and the two depths leave the same bytes and requests.
  std::vector<std::vector<std::int64_t>> kept_by_depth;
  std::vector<io::IoStats> stats_by_depth;
  for (const std::size_t depth : {0u, 3u}) {
    SCOPED_TRACE(depth);
    Rig rig("pipe_interleave");
    std::vector<std::int64_t> data(5000);
    std::iota(data.begin(), data.end(), 0);
    rig.disk.write_file<std::int64_t>("g0", data, kScratch);
    std::string parent = "g0";
    std::vector<std::int64_t> expect = data;
    for (int step = 1; step <= 6; ++step) {
      const std::string left = "l" + std::to_string(step);
      const std::string right = "r" + std::to_string(step);
      std::vector<std::int64_t> lv;
      std::vector<std::int64_t> rv;
      {
        io::BlockWriter<std::int64_t> lw(rig.disk, left, 97 + step,
                                         depth_of(depth), kScratch);
        io::BlockWriter<std::int64_t> rw(rig.disk, right, 131 - step,
                                         depth_of(depth), kScratch);
        io::BlockReader<std::int64_t> r(rig.disk, parent, 211,
                                        depth_of(depth));
        std::vector<std::int64_t> blk;
        while (r.next_block(blk)) {
          for (const auto v : blk) {
            if ((v * 7 + step) % 3 == 0) {
              lw.append(v);
              lv.push_back(v);
            } else {
              rw.append(v);
              rv.push_back(v);
            }
          }
        }
        lw.close();
        rw.close();
      }
      // The parent read back what it was written with: the children,
      // both ascending, merge back into it.
      std::vector<std::int64_t> merged;
      std::merge(lv.begin(), lv.end(), rv.begin(), rv.end(),
                 std::back_inserter(merged));
      EXPECT_EQ(merged, expect);
      EXPECT_EQ(read_all(rig.disk, left, 64, depth), lv);
      EXPECT_EQ(read_all(rig.disk, right, 500, depth), rv);
      rig.disk.remove(parent);
      // The larger child is the next parent; the smaller one stays live.
      parent = rv.size() >= lv.size() ? right : left;
      expect = rv.size() >= lv.size() ? rv : lv;
    }
    // Each file still holds its own records after the pages churned.
    for (int step = 1; step <= 6; ++step) {
      for (const char side : {'l', 'r'}) {
        const std::string name = side + std::to_string(step);
        if (!rig.disk.exists(name)) continue;
        kept_by_depth.push_back(rig.disk.read_file<std::int64_t>(name));
      }
    }
    stats_by_depth.push_back(rig.disk.stats());
  }
  ASSERT_EQ(kept_by_depth.size() % 2, 0u);
  const std::size_t half = kept_by_depth.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    EXPECT_EQ(kept_by_depth[i], kept_by_depth[half + i]);
  }
  EXPECT_EQ(stats_by_depth[0].read_ops, stats_by_depth[1].read_ops);
  EXPECT_EQ(stats_by_depth[0].write_ops, stats_by_depth[1].write_ops);
  EXPECT_EQ(stats_by_depth[0].bytes_written, stats_by_depth[1].bytes_written);
}

TEST(PipelineProperty, EmptyFileYieldsNoBlocksAndNoRequests) {
  Rig rig("pipe_empty");
  { io::BlockWriter<int> w(rig.disk, "e.bin", 8); }
  const auto pre = rig.disk.stats();
  io::BlockReader<int> r(rig.disk, "e.bin", 8, depth_of(2));
  std::vector<int> blk;
  EXPECT_FALSE(r.next_block(blk));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(rig.disk.stats().read_ops, pre.read_ops);
}

// ---- Modeled-time accounting ----

TEST(PipelineClock, NoComputeBetweenReapsChargesTheSynchronousCost) {
  // With nothing to overlap against, the stall equals the full device cost:
  // the pipeline can never charge less total time than the device needs.
  Rig sync_rig("pipe_clock_sync");
  Rig pipe_rig("pipe_clock_async");
  std::vector<std::int64_t> data(3000, 7);
  sync_rig.disk.write_file<std::int64_t>("c.bin", data);
  pipe_rig.disk.write_file<std::int64_t>("c.bin", data);
  const double sync0 = sync_rig.clock.snapshot().io_s;
  const double pipe0 = pipe_rig.clock.snapshot().io_s;

  {
    io::BlockReader<std::int64_t> r(sync_rig.disk, "c.bin", 256);
    std::vector<std::int64_t> blk;
    while (r.next_block(blk)) {
    }
  }
  (void)read_all(pipe_rig.disk, "c.bin", 256, 2);

  const double sync_io = sync_rig.clock.snapshot().io_s - sync0;
  const double pipe_io = pipe_rig.clock.snapshot().io_s - pipe0;
  EXPECT_NEAR(pipe_io, sync_io, 1e-9 * sync_io);
  // Rounding in the stall subtraction (done_at - total()) can leave an
  // ulp-scale residue; anything material would mean phantom overlap.
  EXPECT_LT(pipe_rig.clock.snapshot().io_hidden_s, 1e-12);
}

TEST(PipelineClock, ComputeBetweenReapsHidesIo) {
  Rig rig("pipe_hide");
  std::vector<std::int64_t> data(4000, 1);
  rig.disk.write_file<std::int64_t>("h.bin", data);
  const double io0 = rig.clock.snapshot().io_s;

  io::BlockReader<std::int64_t> r(rig.disk, "h.bin", 500, depth_of(2));
  std::vector<std::int64_t> blk;
  double sync_equivalent = 0.0;
  while (r.next_block(blk)) {
    sync_equivalent += rig.cost.disk_read(blk.size() * sizeof(std::int64_t));
    // A consumer that computes on every record: the next block's read-ahead
    // proceeds on the modeled device while this accrues.
    rig.clock.add_compute(static_cast<double>(blk.size()) *
                          rig.cost.machine().cpu_scan_op);
  }
  const auto snap = rig.clock.snapshot();
  EXPECT_GT(snap.io_hidden_s, 0.0);
  // Charged stall + hidden together cover exactly the device's work.
  EXPECT_NEAR((snap.io_s - io0) + snap.io_hidden_s, sync_equivalent,
              1e-9 * sync_equivalent);
  // io_hidden is informational: it never enters the timeline position.
  EXPECT_DOUBLE_EQ(snap.total(),
                   snap.compute_s + snap.comm_s + snap.io_s + snap.idle_s);
}

// ---- Whole-classifier differential: pipeline on/off ----

std::string tree_bytes(const clouds::DecisionTree& tree) {
  const auto nodes = tree.serialize();
  std::string out(nodes.size() * sizeof(clouds::TreeNode), '\0');
  if (!nodes.empty()) std::memcpy(out.data(), nodes.data(), out.size());
  return out;
}

std::string file_bytes_of(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct TrainResult {
  std::string tree;
  double parallel_time = 0.0;
  double io_hidden = 0.0;
};

TrainResult run_pclouds(int p, std::uint64_t n, bool pipelined,
                        const fs::path& save_to = {}) {
  io::ScratchArena arena("pipe_diff", p);
  mp::Runtime rt(p);
  data::AgrawalGenerator gen({.function = 2, .seed = 11});
  data::DatasetPartition part(n, p);
  data::Sampler sampler(0.05, 4);

  TrainResult out;
  std::mutex mu;
  const auto report = rt.run([&](mp::Comm& comm) {
    io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                       &comm.clock());
    data::materialize_local_slice(gen, part, comm.rank(), disk, "train.dat",
                                  2048);
    const auto sample =
        data::draw_local_sample(gen, part, sampler, comm.rank());
    pclouds::PcloudsConfig cfg;
    cfg.clouds.q_root = 400;
    cfg.memory_bytes = 64 << 10;
    cfg.clouds.pipeline = depth_of(pipelined ? 2 : 0);
    auto tree = pclouds::pclouds_train(comm, cfg, disk, "train.dat", sample);
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      out.tree = tree_bytes(tree);
      if (!save_to.empty()) clouds::save_tree(tree, save_to);
    }
  });
  out.parallel_time = report.parallel_time();
  out.io_hidden = report.total_io_hidden();
  return out;
}

TEST(PipelineDifferential, PcloudsTreeIsByteIdenticalPipelineOnOff) {
  io::ScratchArena models("pipe_models", 1);
  const fs::path off_path = models.rank_dir(0) / "off.tree";
  const fs::path on_path = models.rank_dir(0) / "on.tree";
  const auto off = run_pclouds(2, 4000, false, off_path);
  const auto on = run_pclouds(2, 4000, true, on_path);
  ASSERT_FALSE(off.tree.empty());
  EXPECT_EQ(off.tree, on.tree);
  // The saved model files — header and payload — are byte-identical too.
  const auto off_bytes = file_bytes_of(off_path);
  ASSERT_FALSE(off_bytes.empty());
  EXPECT_EQ(off_bytes, file_bytes_of(on_path));
  EXPECT_DOUBLE_EQ(off.io_hidden, 0.0);
  EXPECT_GT(on.io_hidden, 0.0);
}

TEST(PipelineDifferential, SprintTreeIsByteIdenticalPipelineOnOff) {
  auto run = [](bool pipelined) {
    const int p = 2;
    io::ScratchArena arena("pipe_sprint", p);
    mp::Runtime rt(p);
    data::AgrawalGenerator gen({.function = 2, .seed = 5});
    data::DatasetPartition part(3000, p);
    std::string bytes;
    std::mutex mu;
    rt.run([&](mp::Comm& comm) {
      io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                         &comm.clock());
      data::materialize_local_slice(gen, part, comm.rank(), disk,
                                    "train.dat", 1024);
      sprint::SprintConfig cfg;
      cfg.memory_bytes = 32 << 10;
      cfg.pipeline = depth_of(pipelined ? 2 : 0);
      sprint::SprintBuilder builder(cfg);
      auto tree = builder.train(comm, disk, "train.dat");
      if (comm.rank() == 0) {
        std::lock_guard lock(mu);
        bytes = tree_bytes(tree);
      }
    });
    return bytes;
  };
  const auto off = run(false);
  const auto on = run(true);
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on);
}

// ---- Faults landing on the prefetch thread ----

TEST(PipelineFault, RecoveredFaultOnPrefetchThreadRetriesAndCharges) {
  const auto plan = fault::FaultPlan::parse("disk_read:op=2:times=2");
  fault::RankFault f(&plan, 0, nullptr);
  Rig rig("pipe_fault_rec", &f);
  std::vector<std::int64_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::int64_t>(i);
  }
  rig.disk.write_file<std::int64_t>("r.bin", data);

  const double io0 = rig.clock.snapshot().io_s;
  EXPECT_EQ(read_all(rig.disk, "r.bin", 256, 3), data);
  EXPECT_EQ(f.injected(), 2u);
  // Two failed attempts -> two backoffs (8 ms, then 16 ms) charged to the
  // modeled clock exactly as on the synchronous path.
  EXPECT_GE(rig.clock.snapshot().io_s - io0, 8e-3 + 16e-3);
}

TEST(PipelineFault, ExhaustedRetriesSurfaceAtReapAndPoisonTheQueue) {
  // Spec 2 (op=3) would fire if the queued third request were ever
  // consulted; the poisoned stream must skip it without touching the
  // injector or the file.
  const auto plan =
      fault::FaultPlan::parse("disk_read:op=2:times=4;disk_read:op=3");
  fault::RankFault f(&plan, 0, nullptr);
  Rig rig("pipe_fault_fatal", &f);
  rig.disk.write_file<std::int64_t>("x.bin",
                                    std::vector<std::int64_t>(1000, 3));

  std::vector<std::int64_t> blk;
  EXPECT_THROW(
      {
        io::BlockReader<std::int64_t> r(rig.disk, "x.bin", 256, depth_of(3));
        while (r.next_block(blk)) {
        }
      },
      fault::DiskFault);
  // Only the first request settled successfully; op 2 burned the whole
  // retry budget; ops 3 and 4 were skipped behind the poison flag.
  EXPECT_EQ(rig.disk.stats().read_ops, 1u);
  EXPECT_EQ(f.injected(), 4u);
}

TEST(PipelineFault, TornWriteBehindTruncatesAndThrowsOnClose) {
  const auto plan = fault::FaultPlan::parse("disk_write:op=2:torn");
  fault::RankFault f(&plan, 0, nullptr);
  Rig rig("pipe_fault_torn", &f);

  io::BlockWriter<std::int64_t> w(rig.disk, "t.bin", 128, depth_of(2));
  for (int i = 0; i < 256; ++i) w.append(static_cast<std::int64_t>(i));
  EXPECT_THROW(w.close(), fault::DiskFault);
  // Block 1 landed whole; block 2 tore at half: 128 + 64 records on disk.
  EXPECT_EQ(rig.disk.file_bytes("t.bin"), (128 + 64) * sizeof(std::int64_t));
}

// What one fault plan did to a stream, at one queue depth.
struct FaultOutcome {
  std::vector<std::int64_t> read;  ///< records returned before any throw
  std::string disk;                ///< the file's bytes afterwards
  std::string error;               ///< exception type and message, if any
  std::string error_again;         ///< the same, from the call made again
  std::uint64_t injected = 0;
  io::IoStats stats;
  std::map<std::string, std::uint64_t> counters;  ///< fault.disk_*
};

struct FaultRow {
  const char* name;
  const char* plan;
  bool write;
  bool gives_up;  ///< the stream ends in DiskFault
  std::uint64_t expected_injected;
  /// After the throw, call the dead stream once more -- next_block() for a
  /// reader, close() and destruction for a writer -- before the outcome
  /// is read.  Other rows are read with the stream still open.
  bool again;
};

std::string error_of(const std::exception& e) {
  return std::string(typeid(e).name()) + ": " + e.what();
}

constexpr std::size_t kParityRecords = 2000;

FaultOutcome run_fault_row(const FaultRow& row, std::size_t depth,
                           io::FileKind kind) {
  const auto plan = fault::FaultPlan::parse(row.plan);
  fault::RankFault f(&plan, 0, nullptr);
  obs::Tracer tracer(1);
  Rig rig("pipe_fault_parity", &f, &tracer);
  std::vector<std::int64_t> data(kParityRecords);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::int64_t>(i * 7);
  }
  // 2000 records in blocks of 300: seven requests per pass.
  constexpr std::size_t kBlock = 300;
  if (!row.write) rig.disk.write_file<std::int64_t>("p.bin", data, kind);

  FaultOutcome out;
  std::optional<io::BlockWriter<std::int64_t>> writer;
  std::optional<io::BlockReader<std::int64_t>> reader;
  std::vector<std::int64_t> blk;
  try {
    if (row.write) {
      writer.emplace(rig.disk, "p.bin", kBlock, depth_of(depth), kind);
      for (const auto v : data) writer->append(v);
      writer->close();
    } else {
      reader.emplace(rig.disk, "p.bin", kBlock, depth_of(depth));
      while (reader->next_block(blk)) {
        out.read.insert(out.read.end(), blk.begin(), blk.end());
      }
    }
  } catch (const std::exception& e) {
    out.error = error_of(e);
  }
  if (row.again) {
    try {
      if (row.write) {
        writer->close();
      } else {
        (void)reader->next_block(blk);
      }
    } catch (const std::exception& e) {
      out.error_again = error_of(e);
    }
    writer.reset();
    reader.reset();
  }
  out.injected = f.injected();
  out.stats = rig.disk.stats();
  for (const auto& [name, c] : tracer.metrics(0).counters()) {
    if (name.rfind("fault.disk_", 0) == 0) out.counters[name] = c.value;
  }
  // The file's bytes, read with the injector disarmed.
  f.init(nullptr, 0, nullptr);
  const auto bytes = rig.disk.read_file<char>("p.bin");
  out.disk.assign(bytes.begin(), bytes.end());
  return out;
}

TEST(PipelineFault, SameFaultPlanSameOutcomePipelinedOrNot) {
  // The worker consults the per-site op counters in program order and
  // runs the same executor, so a plan aimed at the Nth request hits the
  // same logical request, and ends the same way, at every queue depth.
  // A task file's requests are the kept file's requests moved to pages of
  // the scratch file: same bytes, count, order and verdicts.
  const FaultRow rows[] = {
      {"transient read", "disk_read:op=3:times=2", false, false, 2, false},
      {"exhausted read", "disk_read:op=3:times=4", false, true, 4, false},
      {"exhausted read, read again", "disk_read:op=3:times=4", false, true, 4,
       true},
      // The seventh request is the last: nothing is queued behind it.
      {"exhausted last read, read again", "disk_read:op=7:times=4", false,
       true, 4, true},
      {"transient write", "disk_write:op=3:times=2", true, false, 2, false},
      {"exhausted write", "disk_write:op=3:times=4", true, true, 4, false},
      {"exhausted last write, close again", "disk_write:op=7:times=4", true,
       true, 4, true},
      {"torn write, close again", "disk_write:op=3:torn", true, true, 1, true},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    const auto sync = run_fault_row(row, 0, io::FileKind::kKept);
    EXPECT_EQ(sync.injected, row.expected_injected);
    if (row.gives_up) {
      EXPECT_NE(sync.error.find("DiskFault"), std::string::npos);
    } else {
      // A transient fault is absorbed: every record moves.
      EXPECT_EQ(sync.error, "");
      EXPECT_EQ(row.write ? sync.disk.size() / sizeof(std::int64_t)
                          : sync.read.size(),
                kParityRecords);
    }
    if (row.again) {
      // A dead stream says so; it never reports data it did not move.
      EXPECT_NE(sync.error_again.find("DiskFault"), std::string::npos);
      EXPECT_NE(sync.error_again.find("after the stream failed"),
                std::string::npos);
    }
    for (const auto kind : {io::FileKind::kKept, io::FileKind::kScratch}) {
      for (const std::size_t depth : {0u, 2u}) {
        if (kind == io::FileKind::kKept && depth == 0) continue;
        SCOPED_TRACE(testing::Message()
                     << (kind == io::FileKind::kKept ? "kept" : "task")
                     << " file, depth " << depth);
        const auto other = run_fault_row(row, depth, kind);
        EXPECT_EQ(sync.read, other.read);
        EXPECT_EQ(sync.disk, other.disk);
        EXPECT_EQ(sync.error, other.error);
        EXPECT_EQ(sync.error_again, other.error_again);
        EXPECT_EQ(sync.injected, other.injected);
        EXPECT_EQ(sync.stats.read_ops, other.stats.read_ops);
        EXPECT_EQ(sync.stats.write_ops, other.stats.write_ops);
        EXPECT_EQ(sync.stats.bytes_read, other.stats.bytes_read);
        EXPECT_EQ(sync.stats.bytes_written, other.stats.bytes_written);
        EXPECT_EQ(sync.counters, other.counters);
      }
    }
  }
}

TEST(PipelineFault, FaultDuringPipelinedTrainingAbortsCleanly) {
  // An unrecoverable read fault in the middle of a pipelined pCLOUDS build
  // must abort the whole run (no hang, no torn state) exactly like the
  // synchronous path does.
  const int p = 2;
  io::ScratchArena arena("pipe_fault_train", p);
  mp::Runtime rt(p);
  data::AgrawalGenerator gen({.function = 2, .seed = 11});
  data::DatasetPartition part(3000, p);
  data::Sampler sampler(0.05, 4);
  const auto faults = fault::FaultPlan::parse("disk_read:rank=1:op=4:times=4");

  EXPECT_THROW(
      rt.run(
          [&](mp::Comm& comm) {
            io::LocalDisk disk(arena.rank_dir(comm.rank()), &comm.cost(),
                               &comm.clock(), {}, comm.fault());
            data::materialize_local_slice(gen, part, comm.rank(), disk,
                                          "train.dat", 1024);
            const auto sample =
                data::draw_local_sample(gen, part, sampler, comm.rank());
            pclouds::PcloudsConfig cfg;
            cfg.clouds.q_root = 200;
            cfg.memory_bytes = 32 << 10;
            cfg.clouds.pipeline = depth_of(2);
            (void)pclouds::pclouds_train(comm, cfg, disk, "train.dat",
                                         sample);
          },
          nullptr, &faults),
      fault::DiskFault);
}

// ---- Perf regression (ctest label: perf) ----

TEST(PipelinePerf, PipelinedBuildIsStrictlyFasterAtEightRanks) {
  const auto sync = run_pclouds(8, 6000, false);
  const auto pipe = run_pclouds(8, 6000, true);
  ASSERT_EQ(sync.tree, pipe.tree);
  EXPECT_GT(pipe.io_hidden, 0.0);
  EXPECT_LT(pipe.parallel_time, sync.parallel_time);
}

}  // namespace
}  // namespace pdc
