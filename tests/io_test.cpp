// Tests for the out-of-core substrate: scratch arenas, local disks, block
// streaming, I/O accounting, and the memory budget.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <deque>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "io/local_disk.hpp"
#include "io/memory_budget.hpp"
#include "io/pipeline.hpp"
#include "io/scratch.hpp"
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

TEST_F(DiskFixture, WriterAppendModeExtendsFile) {
  {
    BlockWriter<int> w(disk, "app.bin", 16);
    w.append(1);
  }
  {
    BlockWriter<int> w(disk, "app.bin", 16, {}, /*append=*/true);
    w.append(2);
  }
  auto all = disk.read_file<int>("app.bin");
  EXPECT_EQ(all, (std::vector<int>{1, 2}));
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

// ---- Recycled inodes: remove() keeps emptied files for new names ----

ino_t inode_of(const fs::path& p) {
  struct stat st {};
  EXPECT_EQ(::stat(p.c_str(), &st), 0) << p;
  return st.st_ino;
}

std::size_t entries(const fs::path& dir) {
  return static_cast<std::size_t>(
      std::distance(fs::directory_iterator(dir), fs::directory_iterator{}));
}

TEST_F(DiskFixture, RemoveKeepsTheInodeAsAnEmptyFreeFile) {
  disk.write_file<int>("a.bin", std::vector<int>(1000, 7));
  const auto ino = inode_of(disk.path_of("a.bin"));
  disk.remove("a.bin");
  EXPECT_FALSE(disk.exists("a.bin"));
  EXPECT_EQ(disk.free_files(), 1u);
  ASSERT_EQ(entries(disk.dir()), 1u);
  const auto free_file = fs::directory_iterator(disk.dir())->path();
  EXPECT_TRUE(free_file.filename().string().starts_with(".free."));
  EXPECT_EQ(fs::file_size(free_file), 0u);
  EXPECT_EQ(inode_of(free_file), ino);
}

TEST_F(DiskFixture, RemovingAMissingNameIsANoOp) {
  disk.remove("nope.bin");
  EXPECT_EQ(disk.free_files(), 0u);
  EXPECT_EQ(entries(disk.dir()), 0u);
}

TEST_F(DiskFixture, WriteFileToANewNameDrawsFromThePool) {
  disk.write_file<int>("a.bin", std::vector<int>(1000, 7));
  const auto ino = inode_of(disk.path_of("a.bin"));
  disk.remove("a.bin");
  disk.write_file<int>("b.bin", std::vector<int>{1, 2, 3});
  EXPECT_EQ(inode_of(disk.path_of("b.bin")), ino);
  EXPECT_EQ(disk.free_files(), 0u);
  EXPECT_EQ(entries(disk.dir()), 1u);
  EXPECT_EQ(disk.read_file<int>("b.bin"), (std::vector<int>{1, 2, 3}));
}

TEST_F(DiskFixture, ExistingNameIsTruncatedNotSwapped) {
  disk.write_file<int>("a.bin", std::vector<int>(1000, 7));
  disk.write_file<int>("gone.bin", std::vector<int>(10, 1));
  disk.remove("gone.bin");
  const auto ino = inode_of(disk.path_of("a.bin"));
  disk.write_file<int>("a.bin", std::vector<int>{4, 5});
  EXPECT_EQ(inode_of(disk.path_of("a.bin")), ino);
  EXPECT_EQ(disk.free_files(), 1u);
  EXPECT_EQ(disk.read_file<int>("a.bin"), (std::vector<int>{4, 5}));
}

TEST_F(DiskFixture, BytesOnDiskIgnoresFreeFiles) {
  disk.write_file<std::byte>("big.bin", std::vector<std::byte>(4096));
  disk.remove("big.bin");
  EXPECT_EQ(disk.free_files(), 1u);
  EXPECT_EQ(arena.bytes_on_disk(), 0u);
  disk.write_file<std::byte>("small.bin", std::vector<std::byte>(100));
  EXPECT_EQ(arena.bytes_on_disk(), 100u);
}

TEST_F(DiskFixture, ChurnWithTwoLiveFilesKeepsAtMostThreeEntries) {
  // 1,000 partition-like cycles: stream a new file, then remove the older
  // of the two live ones.  Only the first three files are ever created.
  std::deque<std::string> live;
  std::size_t most = 0;
  for (int i = 0; i < 1000; ++i) {
    live.push_back("f" + std::to_string(i));
    {
      BlockWriter<int> w(disk, live.back(), 16);
      for (int k = 0; k < 20 + i % 7; ++k) w.append(i);
    }
    if (live.size() > 2) {
      disk.remove(live.front());
      live.pop_front();
    }
    most = std::max(most, entries(disk.dir()));
  }
  EXPECT_LE(most, 3u);
  EXPECT_EQ(disk.read_file<int>("f999"), std::vector<int>(20 + 999 % 7, 999));
  EXPECT_EQ(disk.read_file<int>("f998"), std::vector<int>(20 + 998 % 7, 998));
}

TEST(InodePool, ASecondDiskOnTheDirectoryCreatesNoNewInode) {
  ScratchArena arena("io_adopt", 1);
  mp::CostModel cost{mp::Machine{}};
  mp::Clock clock;
  std::set<ino_t> inodes;
  {
    LocalDisk first(arena.rank_dir(0), &cost, &clock);
    for (int i = 0; i < 8; ++i) {
      const auto name = "a" + std::to_string(i);
      first.write_file<int>(name, std::vector<int>(100, i));
      inodes.insert(inode_of(first.path_of(name)));
    }
    for (int i = 0; i < 8; ++i) first.remove("a" + std::to_string(i));
  }
  LocalDisk second(arena.rank_dir(0), &cost, &clock);
  EXPECT_EQ(second.free_files(), 8u);
  for (int i = 0; i < 8; ++i) {
    const auto name = "b" + std::to_string(i);
    if (i % 2 == 0) {
      second.write_file<int>(name, std::vector<int>{i});
    } else {
      BlockWriter<int> w(second, name, 16);
      w.append(i);
    }
    EXPECT_TRUE(inodes.contains(inode_of(second.path_of(name)))) << name;
    EXPECT_EQ(second.read_file<int>(name), std::vector<int>{i});
  }
  EXPECT_EQ(second.free_files(), 0u);
  EXPECT_EQ(entries(arena.rank_dir(0)), 8u);
}

TEST(InodePool, TornWriteIntoARecycledInodeLeavesExactlyItsPrefix) {
  ScratchArena arena("io_torn", 1);
  mp::CostModel cost{mp::Machine{}};
  mp::Clock clock;
  const auto plan = fault::FaultPlan::parse("disk_write:op=2:torn");
  fault::RankFault f(&plan, 0, &clock);
  LocalDisk disk(arena.rank_dir(0), &cost, &clock, {}, &f);
  disk.write_file<int>("old.bin", std::vector<int>(4161, -1));  // write op 1
  disk.remove("old.bin");
  std::vector<int> payload(100);
  std::iota(payload.begin(), payload.end(), 0);
  EXPECT_THROW(disk.write_file<int>("new.bin", payload), fault::DiskFault);
  EXPECT_EQ(disk.free_files(), 0u);
  const auto on_disk = disk.read_file<int>("new.bin");
  EXPECT_EQ(on_disk, std::vector<int>(payload.begin(), payload.begin() + 50));
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
