// Tests for the out-of-core substrate: scratch arenas, local disks, block
// streaming, I/O accounting, and the memory budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <numeric>
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
