// Tests for the out-of-core substrate: scratch arenas, local disks, block
// streaming, I/O accounting, and the memory budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "io/local_disk.hpp"
#include "io/memory_budget.hpp"
#include "io/pipeline.hpp"
#include "io/scratch.hpp"
#include "io/scratch_file.hpp"
#include "mp/clock.hpp"
#include "mp/cost_model.hpp"

namespace pdc::io {
namespace {

namespace fs = std::filesystem;

struct DiskFixture : ::testing::Test {
  DiskFixture()
      : arena("io_test", 2),
        cost(mp::Machine::sp2_like()),
        disk(arena.rank_dir(0), &cost, &clock) {}

  ScratchArena arena;
  mp::CostModel cost;
  mp::Clock clock;
  LocalDisk disk;
};

TEST_F(DiskFixture, ArenaCreatesPerRankDirs) {
  EXPECT_TRUE(fs::is_directory(arena.rank_dir(0)));
  EXPECT_TRUE(fs::is_directory(arena.rank_dir(1)));
  EXPECT_NE(arena.rank_dir(0), arena.rank_dir(1));
}

TEST(Scratch, ArenaRemovedOnDestruction) {
  fs::path root;
  {
    ScratchArena a("io_test_tmp", 1);
    root = a.root();
    EXPECT_TRUE(fs::exists(root));
  }
  EXPECT_FALSE(fs::exists(root));
}

TEST(Scratch, DistinctArenasDoNotCollide) {
  ScratchArena a("same_tag", 1);
  ScratchArena b("same_tag", 1);
  EXPECT_NE(a.root(), b.root());
}

TEST_F(DiskFixture, WholeFileRoundTrip) {
  std::vector<double> data(1000);
  std::iota(data.begin(), data.end(), 0.5);
  disk.write_file<double>("vals.bin", data);
  EXPECT_TRUE(disk.exists("vals.bin"));
  EXPECT_EQ(disk.file_records<double>("vals.bin"), 1000u);
  auto back = disk.read_file<double>("vals.bin");
  EXPECT_EQ(back, data);
}

TEST_F(DiskFixture, StatsCountOpsAndBytes) {
  std::vector<std::int32_t> data(256, 7);
  disk.write_file<std::int32_t>("a.bin", data);
  (void)disk.read_file<std::int32_t>("a.bin");
  EXPECT_EQ(disk.stats().write_ops, 1u);
  EXPECT_EQ(disk.stats().read_ops, 1u);
  EXPECT_EQ(disk.stats().bytes_written, 1024u);
  EXPECT_EQ(disk.stats().bytes_read, 1024u);
}

TEST_F(DiskFixture, ModeledIoTimeCharged) {
  std::vector<std::byte> data(1 << 16);
  disk.write_file<std::byte>("b.bin", data);
  const double expected = cost.disk_write(1 << 16);
  EXPECT_DOUBLE_EQ(clock.snapshot().io_s, expected);
}

TEST_F(DiskFixture, RemoveAndExists) {
  disk.write_file<int>("gone.bin", std::vector<int>{1});
  EXPECT_TRUE(disk.exists("gone.bin"));
  disk.remove("gone.bin");
  EXPECT_FALSE(disk.exists("gone.bin"));
  EXPECT_EQ(disk.file_bytes("gone.bin"), 0u);
}

TEST_F(DiskFixture, ReadMissingFileThrows) {
  EXPECT_THROW((void)disk.read_file<int>("nope.bin"), std::runtime_error);
}

TEST_F(DiskFixture, WriterReaderStreamRoundTrip) {
  const std::size_t n = 10'000;
  {
    BlockWriter<std::int64_t> w(disk, "stream.bin", /*block_records=*/128);
    for (std::size_t i = 0; i < n; ++i) w.append(static_cast<std::int64_t>(i));
    EXPECT_EQ(w.count(), n);
  }
  BlockReader<std::int64_t> r(disk, "stream.bin", /*block_records=*/300);
  EXPECT_EQ(r.remaining(), n);
  std::vector<std::int64_t> block;
  std::int64_t expect = 0;
  while (r.next_block(block)) {
    for (auto v : block) EXPECT_EQ(v, expect++);
  }
  EXPECT_EQ(expect, static_cast<std::int64_t>(n));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST_F(DiskFixture, WriterBlocksBecomeRequests) {
  {
    BlockWriter<std::int32_t> w(disk, "blk.bin", /*block_records=*/100);
    for (int i = 0; i < 1000; ++i) w.append(i);
  }
  // 1000 records in blocks of 100 -> exactly 10 write requests.
  EXPECT_EQ(disk.stats().write_ops, 10u);
  BlockReader<std::int32_t> r(disk, "blk.bin", /*block_records=*/250);
  std::vector<std::int32_t> block;
  while (r.next_block(block)) {
  }
  EXPECT_EQ(disk.stats().read_ops, 4u);
}

TEST_F(DiskFixture, EmptyStreamYieldsNoBlocks) {
  { BlockWriter<int> w(disk, "empty.bin", 8); }
  BlockReader<int> r(disk, "empty.bin", 8);
  std::vector<int> block;
  EXPECT_FALSE(r.next_block(block));
}

TEST_F(DiskFixture, BytesOnDiskTracksContent) {
  EXPECT_EQ(arena.bytes_on_disk(), 0u);
  disk.write_file<std::byte>("big.bin", std::vector<std::byte>(4096));
  EXPECT_EQ(arena.bytes_on_disk(), 4096u);
}

// ---- Task files: pages of the disk's one scratch file ----

constexpr auto kScratch = FileKind::kScratch;
constexpr std::size_t kPage = ScratchFile::kPageBytes;

std::size_t entries(const fs::path& dir) {
  return static_cast<std::size_t>(
      std::distance(fs::directory_iterator(dir), fs::directory_iterator{}));
}

/// Pages of the scratch file, live or free.
std::size_t extent(const LocalDisk& disk) {
  return disk.scratch().live_pages() + disk.scratch().free_pages();
}

TEST_F(DiskFixture, TaskFilesLeaveNoEntryInTheDirectory) {
  disk.write_file<int>("a.bin", std::vector<int>(3000, 7), kScratch);
  {
    BlockWriter<int> w(disk, "b.bin", 16, {}, kScratch);
    for (int i = 0; i < 100; ++i) w.append(i);
  }
  EXPECT_TRUE(disk.exists("a.bin"));
  EXPECT_EQ(disk.file_records<int>("b.bin"), 100u);
  EXPECT_EQ(disk.read_file<int>("a.bin"), std::vector<int>(3000, 7));
  // The scratch file was unlinked when it was created.
  EXPECT_EQ(entries(disk.dir()), 0u);
  EXPECT_EQ(disk.scratch().files(), 2u);
  EXPECT_EQ(disk.scratch().live_pages(), 3u + 1u);
  EXPECT_EQ(disk.scratch().live_bytes(), (3000u + 100u) * sizeof(int));
  disk.remove("a.bin");
  disk.remove("b.bin");
  EXPECT_FALSE(disk.exists("a.bin"));
  EXPECT_EQ(disk.scratch().live_pages(), 0u);
  EXPECT_EQ(disk.scratch().free_pages(), 4u);
}

TEST_F(DiskFixture, RemovingAMissingNameIsANoOp) {
  disk.remove("nope.bin");
  EXPECT_EQ(extent(disk), 0u);
  EXPECT_EQ(entries(disk.dir()), 0u);
}

TEST_F(DiskFixture, RemovedOrMissingNameReadsAsAbsent) {
  disk.write_file<int>("task.bin", std::vector<int>(10, 1), kScratch);
  disk.write_file<int>("kept.bin", std::vector<int>(10, 2));
  disk.remove("task.bin");
  disk.remove("kept.bin");
  for (const char* name : {"task.bin", "kept.bin", "never.bin"}) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(disk.exists(name));
    EXPECT_EQ(disk.file_bytes(name), 0u);
    EXPECT_THROW((void)disk.read_file<int>(name), std::runtime_error);
    EXPECT_THROW((void)BlockReader<int>(disk, name, 4), std::runtime_error);
  }
  EXPECT_EQ(disk.scratch().files(), 0u);
  EXPECT_EQ(entries(disk.dir()), 0u);
}

TEST_F(DiskFixture, ANewTaskFileTakesFreedPagesInTheirOrder) {
  // Three pages freed by one file come back, first page first, so the new
  // file's bytes lie in one run of the scratch file as the old one's did.
  disk.write_file<int>("a.bin", std::vector<int>(3 * kPage / 4, 7), kScratch);
  const auto old_pages = disk.scratch().find("a.bin")->pages;
  disk.remove("a.bin");
  disk.write_file<int>("b.bin", std::vector<int>(3 * kPage / 4 - 1, 5),
                       kScratch);
  EXPECT_EQ(disk.scratch().find("b.bin")->pages, old_pages);
  EXPECT_EQ(extent(disk), 3u);
  EXPECT_EQ(disk.read_file<int>("b.bin"),
            std::vector<int>(3 * kPage / 4 - 1, 5));
}

TEST(ScratchFile, AdjacentPagesCoalesceIntoOneRun) {
  ScratchArena arena("io_runs", 1);
  ScratchFile scratch(arena.rank_dir(0));
  ScratchFile::Pages a;
  std::vector<ByteRun> runs;
  scratch.map(a, 0, 3 * kPage, runs);  // pages 0, 1, 2
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 0u);
  EXPECT_EQ(runs[0].bytes, 3 * kPage);
  ScratchFile::Pages b;
  runs.clear();
  scratch.map(b, 0, kPage, runs);  // page 3
  scratch.release(a);              // frees 2, 1, 0: page 0 is taken next
  runs.clear();
  scratch.map(b, kPage - 10, 2 * kPage, runs);  // pages 3 | 0, 1
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].offset, 4 * kPage - 10);
  EXPECT_EQ(runs[0].bytes, 10u);
  EXPECT_EQ(runs[1].offset, 0u);
  EXPECT_EQ(runs[1].bytes, 2 * kPage - 10);
  EXPECT_EQ(b.pages, (std::vector<std::uint64_t>{3, 0, 1}));
  EXPECT_EQ(scratch.live_pages(), 3u);
  EXPECT_EQ(scratch.free_pages(), 1u);
}

TEST_F(DiskFixture, KeptFileWrittenOverAnExistingNameIsReplaced) {
  // A link to the old inode keeps its bytes: the new file is a new inode,
  // not the old one truncated in place.
  disk.write_file<int>("a.bin", std::vector<int>(1000, 7));
  fs::create_hard_link(disk.path_of("a.bin"), disk.path_of("a.link"));
  disk.write_file<int>("a.bin", std::vector<int>{4, 5});
  EXPECT_EQ(disk.read_file<int>("a.bin"), (std::vector<int>{4, 5}));
  EXPECT_EQ(disk.read_file<int>("a.link"), std::vector<int>(1000, 7));
  // A stream replaces its name the same way.
  for (const int v : {9, 3}) {
    if (v == 3) {
      fs::create_hard_link(disk.path_of("b.bin"), disk.path_of("b.link"));
    }
    BlockWriter<int> w(disk, "b.bin", 16);
    w.append(v);
  }
  EXPECT_EQ(disk.read_file<int>("b.bin"), std::vector<int>{3});
  EXPECT_EQ(disk.read_file<int>("b.link"), std::vector<int>{9});
}

TEST_F(DiskFixture, BytesOnDiskCountsKeptFilesOnly) {
  disk.write_file<std::byte>("big.bin", std::vector<std::byte>(4096),
                             kScratch);
  EXPECT_EQ(disk.scratch().live_bytes(), 4096u);
  EXPECT_EQ(arena.bytes_on_disk(), 0u);
  disk.write_file<std::byte>("small.bin", std::vector<std::byte>(100));
  EXPECT_EQ(arena.bytes_on_disk(), 100u);
}

TEST_F(DiskFixture, ChurnWithTwoLiveTaskFilesKeepsTheScratchFileAtThreePages) {
  // 1,000 partition-like cycles: stream a new one-page file, then remove
  // the older of the two live ones.  The scratch file never grows past the
  // three pages live at once.
  std::deque<std::string> live;
  std::size_t most = 0;
  for (int i = 0; i < 1000; ++i) {
    live.push_back("f" + std::to_string(i));
    {
      BlockWriter<int> w(disk, live.back(), 16, {}, kScratch);
      for (int k = 0; k < 20 + i % 7; ++k) w.append(i);
    }
    if (live.size() > 2) {
      disk.remove(live.front());
      live.pop_front();
    }
    most = std::max(most, extent(disk));
  }
  EXPECT_EQ(most, 3u);
  EXPECT_EQ(entries(disk.dir()), 0u);
  EXPECT_EQ(disk.read_file<int>("f999"), std::vector<int>(20 + 999 % 7, 999));
  EXPECT_EQ(disk.read_file<int>("f998"), std::vector<int>(20 + 998 % 7, 998));
}

TEST(ScratchFile, TaskFilesVanishWithTheirDisk) {
  // Two disks on one directory each have their own scratch file; a task
  // file is gone once its disk is, and the directory holds only kept files.
  ScratchArena arena("io_two_disks", 1);
  mp::CostModel cost{mp::Machine{}};
  mp::Clock clock;
  LocalDisk second(arena.rank_dir(0), &cost, &clock);
  {
    LocalDisk first(arena.rank_dir(0), &cost, &clock);
    first.write_file<int>("t", std::vector<int>(100, 1), kScratch);
    second.write_file<int>("t", std::vector<int>(50, 2), kScratch);
    first.write_file<int>("k", std::vector<int>{3});
    EXPECT_EQ(first.read_file<int>("t"), std::vector<int>(100, 1));
    EXPECT_EQ(second.read_file<int>("t"), std::vector<int>(50, 2));
  }
  LocalDisk third(arena.rank_dir(0), &cost, &clock);
  EXPECT_FALSE(third.exists("t"));
  EXPECT_EQ(third.read_file<int>("k"), std::vector<int>{3});
  EXPECT_EQ(second.read_file<int>("t"), std::vector<int>(50, 2));
  EXPECT_EQ(entries(arena.rank_dir(0)), 1u);
}

TEST(ScratchFile, TornWriteIntoReusedPagesLeavesExactlyItsPrefix) {
  ScratchArena arena("io_torn", 1);
  mp::CostModel cost{mp::Machine{}};
  mp::Clock clock;
  const auto plan = fault::FaultPlan::parse("disk_write:op=2:torn");
  fault::RankFault f(&plan, 0, &clock);
  LocalDisk disk(arena.rank_dir(0), &cost, &clock, {}, &f);
  disk.write_file<int>("old.bin", std::vector<int>(4161, -1),
                       kScratch);  // write op 1
  disk.remove("old.bin");
  std::vector<int> payload(100);
  std::iota(payload.begin(), payload.end(), 0);
  EXPECT_THROW(disk.write_file<int>("new.bin", payload, kScratch),
               fault::DiskFault);
  EXPECT_EQ(disk.file_bytes("new.bin"), 50 * sizeof(int));
  const auto on_disk = disk.read_file<int>("new.bin");
  EXPECT_EQ(on_disk, std::vector<int>(payload.begin(), payload.begin() + 50));
  EXPECT_EQ(disk.scratch().live_pages(), 1u);
}

TEST(ScratchFile, WholeFileWriteThatGivesUpLeavesTheOldContents) {
  ScratchArena arena("io_give_up", 1);
  mp::CostModel cost{mp::Machine{}};
  mp::Clock clock;
  const auto plan = fault::FaultPlan::parse("disk_write:op=2:times=4");
  fault::RankFault f(&plan, 0, &clock);
  LocalDisk disk(arena.rank_dir(0), &cost, &clock, {}, &f);
  const std::vector<int> old_bytes(2000, 11);
  disk.write_file<int>("a.dat", old_bytes, kScratch);  // write op 1
  EXPECT_THROW(disk.write_file<int>("a.dat", std::vector<int>(3000, -1),
                                    kScratch),
               fault::DiskFault);
  EXPECT_EQ(disk.read_file<int>("a.dat"), old_bytes);
  // The new pages went back to the free list.
  EXPECT_EQ(disk.scratch().live_pages(), 2u);
  EXPECT_EQ(disk.scratch().free_pages(), 3u);
}

TEST(MemoryBudget, FitsAndBlockSizing) {
  MemoryBudget b(1 << 20);
  EXPECT_TRUE(b.fits(1000, 40));
  EXPECT_FALSE(b.fits(1 << 20, 40));
  EXPECT_EQ(b.block_records(40), (1u << 20) / 40);
  EXPECT_EQ(b.block_records(40, 4), (1u << 18) / 40);
  // Degenerate: record bigger than budget still yields progress.
  EXPECT_EQ(b.block_records(2 << 20), 1u);
}

TEST(MemoryBudget, RejectsZero) { EXPECT_THROW(MemoryBudget(0), std::invalid_argument); }

TEST(MemoryBudget, PaperScalingRule) {
  // 1 MB per 6M tuples, linear in data size.
  EXPECT_EQ(MemoryBudget::paper_scaled(6'000'000).bytes(), 1u << 20);
  EXPECT_EQ(MemoryBudget::paper_scaled(3'000'000).bytes(), (1u << 20) / 2);
  EXPECT_EQ(MemoryBudget::paper_scaled(12'000'000).bytes(), (1u << 20) * 2);
  // Floors at 4096 so tiny test datasets still run.
  EXPECT_EQ(MemoryBudget::paper_scaled(10).bytes(), 4096u);
}

// Property sweep: total streamed bytes and record counts conserved for any
// block-size combination.
class StreamP : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StreamP, ConservesRecordsAcrossBlockSizes) {
  auto [wblk, rblk] = GetParam();
  ScratchArena arena("io_prop", 1);
  mp::CostModel cost{mp::Machine{}};
  mp::Clock clock;
  LocalDisk disk(arena.rank_dir(0), &cost, &clock);
  const int n = 777;
  {
    BlockWriter<std::int32_t> w(disk, "p.bin", static_cast<std::size_t>(wblk));
    for (int i = 0; i < n; ++i) w.append(i * 3);
  }
  BlockReader<std::int32_t> r(disk, "p.bin", static_cast<std::size_t>(rblk));
  std::vector<std::int32_t> block;
  std::int64_t count = 0;
  std::int64_t sum = 0;
  while (r.next_block(block)) {
    count += static_cast<std::int64_t>(block.size());
    for (auto v : block) sum += v;
  }
  EXPECT_EQ(count, n);
  EXPECT_EQ(sum, 3LL * n * (n - 1) / 2);
  EXPECT_EQ(disk.stats().bytes_read, disk.stats().bytes_written);
}

INSTANTIATE_TEST_SUITE_P(
    Blocks, StreamP,
    ::testing::Combine(::testing::Values(1, 7, 64, 1000, 5000),
                       ::testing::Values(1, 13, 256, 777, 10000)));

}  // namespace
}  // namespace pdc::io
