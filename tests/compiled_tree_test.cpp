// Compiler/evaluator edge + fuzz tests for serve::CompiledTree: round-trip
// identity, breadth-first layout invariants, a seeded structure fuzzer over
// random tree shapes (no OOB index, descent terminates within depth), and
// reject paths for malformed compiled blobs.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "clouds/builder.hpp"
#include "data/agrawal.hpp"
#include "io/scratch.hpp"
#include "serve/compiled_tree.hpp"
#include "serve/record_block.hpp"

namespace pdc::serve {
namespace {

using clouds::CloudsBuilder;
using clouds::CloudsConfig;
using clouds::DecisionTree;
using clouds::Split;
using data::AgrawalGenerator;
using data::Record;

std::vector<Record> dataset(std::size_t n, std::uint64_t seed,
                            int function = 2) {
  AgrawalGenerator gen({.function = function, .seed = seed});
  return gen.make_range(0, n);
}

DecisionTree trained_tree(std::uint64_t seed, int function = 2) {
  auto train = dataset(3000, seed, function);
  CloudsBuilder builder{CloudsConfig{}};
  return builder.build(train);
}

/// Grows a random tree shape: `internal` split nodes, each replacing a
/// uniformly chosen current leaf with a random numeric or categorical
/// split.  Purely structural — class counts are random too.
DecisionTree random_tree(std::mt19937_64& rng, int internal) {
  std::uniform_int_distribution<std::int64_t> count_dist(0, 100);
  DecisionTree tree(data::ClassCounts{{{count_dist(rng), count_dist(rng)}}});
  std::vector<std::int32_t> leaves{tree.root()};
  for (int k = 0; k < internal; ++k) {
    const std::size_t pick =
        std::uniform_int_distribution<std::size_t>(0, leaves.size() - 1)(rng);
    const std::int32_t id = leaves[pick];
    leaves.erase(leaves.begin() + static_cast<std::ptrdiff_t>(pick));
    Split s;
    if (std::bernoulli_distribution(0.5)(rng)) {
      s.kind = Split::Kind::kNumeric;
      s.attr = static_cast<std::int8_t>(
          std::uniform_int_distribution<int>(0, data::kNumNumeric - 1)(rng));
      s.threshold =
          std::uniform_real_distribution<float>(-100.0f, 100.0f)(rng);
    } else {
      s.kind = Split::Kind::kCategorical;
      const int attr = std::uniform_int_distribution<int>(
          0, data::kNumCategorical - 1)(rng);
      s.attr = static_cast<std::int8_t>(attr);
      const std::uint32_t card = static_cast<std::uint32_t>(
          data::kCatCardinality[static_cast<std::size_t>(attr)]);
      s.subset = static_cast<std::uint32_t>(rng()) & ((1u << card) - 1u);
    }
    const auto [l, r] = tree.grow(
        id, s, data::ClassCounts{{{count_dist(rng), count_dist(rng)}}},
        data::ClassCounts{{{count_dist(rng), count_dist(rng)}}});
    leaves.push_back(l);
    leaves.push_back(r);
  }
  return tree;
}

Record random_record(std::mt19937_64& rng) {
  Record r{};
  for (int a = 0; a < data::kNumNumeric; ++a) {
    r.num[static_cast<std::size_t>(a)] =
        std::uniform_real_distribution<float>(-120.0f, 120.0f)(rng);
  }
  for (int a = 0; a < data::kNumCategorical; ++a) {
    r.cat[static_cast<std::size_t>(a)] =
        static_cast<std::int8_t>(std::uniform_int_distribution<int>(
            0, data::kCatCardinality[static_cast<std::size_t>(a)] - 1)(rng));
  }
  return r;
}

TEST(CompiledTree, MirrorsTreeStructure) {
  const auto tree = trained_tree(7);
  const auto compiled = CompiledTree::compile(tree);
  EXPECT_EQ(compiled.node_count(), tree.live_count());
  EXPECT_EQ(compiled.leaf_count(), tree.leaf_count());
  EXPECT_EQ(compiled.depth(), tree.max_depth());
}

TEST(CompiledTree, LayoutInvariants) {
  const auto compiled = CompiledTree::compile(trained_tree(11));
  const auto nodes = compiled.nodes();
  ASSERT_FALSE(nodes.empty());
  std::vector<int> refs(nodes.size(), 0);
  std::size_t leaves = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const FlatNode& n = nodes[i];
    if (n.is_leaf()) {
      ++leaves;
      // Canonical leaf: the split fields carry nothing.
      EXPECT_EQ(n.kind, 0u);
      EXPECT_EQ(n.attr, 0u);
      EXPECT_EQ(n.threshold, 0.0f);
      EXPECT_EQ(n.mask, 0u);
      EXPECT_LT(n.meta >> 1, static_cast<std::uint32_t>(data::kNumClasses));
    } else {
      const std::uint32_t fc = n.first_child();
      // Breadth-first layout: both children strictly after the parent,
      // adjacent to each other.
      EXPECT_GT(fc, i);
      EXPECT_LT(fc + 1, nodes.size());
      ++refs[fc];
      ++refs[fc + 1];
      // Exactly one of threshold/mask is populated, by kind.
      if (n.kind == 0) {
        EXPECT_LT(n.attr, static_cast<std::uint16_t>(data::kNumNumeric));
        EXPECT_EQ(n.mask, 0u);
      } else {
        EXPECT_EQ(n.kind, 1u);
        EXPECT_LT(n.attr, static_cast<std::uint16_t>(data::kNumCategorical));
        EXPECT_EQ(n.threshold, 0.0f);
      }
    }
  }
  EXPECT_EQ(leaves, compiled.leaf_count());
  EXPECT_EQ(refs[0], 0) << "root must not be referenced as a child";
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_EQ(refs[i], 1) << "node " << i
                          << " must be referenced exactly once";
  }
}

TEST(CompiledTree, BytesRoundTripIdentity) {
  const auto compiled = CompiledTree::compile(trained_tree(13));
  const auto bytes = compiled.to_bytes();
  const auto reloaded = CompiledTree::from_bytes(bytes);
  EXPECT_TRUE(reloaded == compiled);
  // Byte-deterministic: re-serializing reproduces the blob exactly.
  EXPECT_EQ(reloaded.to_bytes(), bytes);
}

TEST(CompiledTree, FileRoundTrip) {
  io::ScratchArena arena("compiled_io", 1);
  const auto compiled = CompiledTree::compile(trained_tree(17));
  const auto path = arena.rank_dir(0) / "model.pdcf";
  save_compiled(compiled, path);
  const auto loaded = load_compiled(path);
  EXPECT_TRUE(loaded == compiled);
  EXPECT_THROW((void)load_compiled(arena.rank_dir(0) / "missing.pdcf"),
               std::runtime_error);
}

TEST(CompiledTree, SingleLeafTree) {
  DecisionTree tree(data::ClassCounts{{{3, 9}}});
  const auto compiled = CompiledTree::compile(tree);
  EXPECT_EQ(compiled.node_count(), 1u);
  EXPECT_EQ(compiled.leaf_count(), 1u);
  EXPECT_EQ(compiled.depth(), 0);
  Record r{};
  EXPECT_EQ(compiled.predict(r), 1);
  const auto reloaded = CompiledTree::from_bytes(compiled.to_bytes());
  EXPECT_TRUE(reloaded == compiled);
}

TEST(CompiledTree, FuzzRandomShapes) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int iter = 0; iter < 1000; ++iter) {
    const int internal = std::uniform_int_distribution<int>(0, 40)(rng);
    const auto tree = random_tree(rng, internal);
    const auto compiled = CompiledTree::compile(tree);
    ASSERT_EQ(compiled.node_count(), tree.live_count());
    ASSERT_EQ(compiled.depth(), tree.max_depth());

    // Round-trip survives validation (compile output satisfies every
    // structural invariant from_bytes re-checks).
    const auto reloaded = CompiledTree::from_bytes(compiled.to_bytes());
    ASSERT_TRUE(reloaded == compiled);

    for (int j = 0; j < 10; ++j) {
      const Record r = random_record(rng);
      int steps = -1;
      std::int8_t got = 0;
      // predict_checked throws on any OOB index or a descent that fails
      // to reach a leaf within depth() steps.
      ASSERT_NO_THROW(got = compiled.predict_checked(r, &steps));
      ASSERT_LE(steps, compiled.depth());
      ASSERT_GE(steps, 0);
      ASSERT_EQ(got, tree.classify(r));
      ASSERT_EQ(compiled.predict(r), got);
    }
  }
}

TEST(CompiledTree, PredictBlockMatchesSingleAtAwkwardSizes) {
  const auto compiled = CompiledTree::compile(trained_tree(19));
  std::mt19937_64 rng(42);
  for (const std::size_t n : {std::size_t{1}, std::size_t{127},
                              std::size_t{128}, std::size_t{129},
                              std::size_t{1000}}) {
    std::vector<Record> records;
    records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) records.push_back(random_record(rng));
    const auto block = RecordBlock::from_records(records);
    std::vector<std::int8_t> out(n);
    compiled.predict_block(block, out);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], compiled.predict(records[i])) << "row " << i;
    }
  }
}

TEST(CompiledTree, AccuracyMatchesInterpreted) {
  const auto tree = trained_tree(23);
  const auto compiled = CompiledTree::compile(tree);
  const auto test = dataset(2000, 99);
  const auto block = RecordBlock::from_records(test);
  EXPECT_DOUBLE_EQ(compiled.accuracy(block), tree.accuracy(test));
}

// ------------------------------------------------------- reject paths ---

std::vector<std::byte> good_blob() {
  return CompiledTree::compile(trained_tree(29)).to_bytes();
}

void expect_reject(std::vector<std::byte> bytes) {
  EXPECT_THROW((void)CompiledTree::from_bytes(bytes), std::runtime_error);
}

TEST(CompiledTreeReject, TruncatedHeader) {
  auto bytes = good_blob();
  bytes.resize(10);
  expect_reject(std::move(bytes));
}

TEST(CompiledTreeReject, TruncatedNodeArray) {
  auto bytes = good_blob();
  bytes.resize(bytes.size() - 7);
  expect_reject(std::move(bytes));
}

TEST(CompiledTreeReject, TrailingBytes) {
  auto bytes = good_blob();
  bytes.push_back(std::byte{0});
  expect_reject(std::move(bytes));
}

TEST(CompiledTreeReject, BadMagic) {
  auto bytes = good_blob();
  bytes[0] ^= std::byte{0xff};
  expect_reject(std::move(bytes));
}

TEST(CompiledTreeReject, BadVersion) {
  auto bytes = good_blob();
  bytes[4] = std::byte{99};
  expect_reject(std::move(bytes));
}

TEST(CompiledTreeReject, EmptyModel) { expect_reject({}); }

/// Byte offset of node i's meta field (header is 24 bytes, nodes 16).
std::size_t meta_off(std::size_t i) { return 24 + 16 * i; }

void poke_u32(std::vector<std::byte>& bytes, std::size_t off,
              std::uint32_t v) {
  for (int b = 0; b < 4; ++b) {
    bytes[off + static_cast<std::size_t>(b)] =
        static_cast<std::byte>(v >> (8 * b));
  }
}

TEST(CompiledTreeReject, DanglingChildIndex) {
  auto bytes = good_blob();
  const std::uint32_t count = static_cast<std::uint32_t>((bytes.size() - 24) / 16);
  ASSERT_GT(count, 1u);
  // Root is internal in a trained tree; point it past the end.
  poke_u32(bytes, meta_off(0), (count + 5) << 1);
  expect_reject(std::move(bytes));
}

TEST(CompiledTreeReject, ChildBeforeParent) {
  auto bytes = good_blob();
  // first_child == 0 points the root at itself: children must come after.
  poke_u32(bytes, meta_off(0), 0u << 1);
  expect_reject(std::move(bytes));
}

TEST(CompiledTreeReject, LeafLabelOutOfRange) {
  DecisionTree leaf_only(data::ClassCounts{{{1, 0}}});
  auto bytes = CompiledTree::compile(leaf_only).to_bytes();
  poke_u32(bytes, meta_off(0), (200u << 1) | 1u);
  expect_reject(std::move(bytes));
}

TEST(CompiledTreeReject, LeafWithSplitFields) {
  DecisionTree leaf_only(data::ClassCounts{{{1, 0}}});
  auto bytes = CompiledTree::compile(leaf_only).to_bytes();
  poke_u32(bytes, meta_off(0) + 12, 0x3u);  // a leaf carrying a mask
  expect_reject(std::move(bytes));
}

TEST(CompiledTreeReject, HeaderDepthMismatch) {
  auto bytes = good_blob();
  poke_u32(bytes, 16, 1000u);  // header depth field
  expect_reject(std::move(bytes));
}

TEST(CompiledTreeReject, HeaderLeafCountMismatch) {
  auto bytes = good_blob();
  poke_u32(bytes, 20, 0u);  // header leaf-count field
  expect_reject(std::move(bytes));
}

}  // namespace
}  // namespace pdc::serve
