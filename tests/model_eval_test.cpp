// Tests for model persistence (save/load), subtree extract/graft
// round-trips, the iterative tree walk against a recursive oracle,
// parallel evaluation and parallel pruning.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "clouds/builder.hpp"
#include "clouds/model_io.hpp"
#include "clouds/prune.hpp"
#include "data/dataset.hpp"
#include "io/scratch.hpp"
#include "mp/runtime.hpp"
#include "pclouds/evaluate.hpp"
#include "pclouds/pclouds.hpp"

namespace pdc {
namespace {

using clouds::CloudsBuilder;
using clouds::CloudsConfig;
using clouds::DecisionTree;
using clouds::TreeNode;
using data::AgrawalGenerator;
using data::Record;

std::vector<Record> dataset(std::size_t n, std::uint64_t seed) {
  AgrawalGenerator gen({.function = 2, .seed = seed});
  return gen.make_range(0, n);
}

struct TmpDir {
  TmpDir() : arena("model_io", 1) {}
  io::ScratchArena arena;
  std::filesystem::path path(const std::string& name) const {
    return arena.rank_dir(0) / name;
  }
};

TEST(ModelIo, SaveLoadRoundTrip) {
  auto train = dataset(3000, 7);
  CloudsBuilder builder{CloudsConfig{}};
  auto tree = builder.build(train);

  TmpDir tmp;
  clouds::save_tree(tree, tmp.path("model.bin"));
  auto loaded = clouds::load_tree(tmp.path("model.bin"));
  EXPECT_EQ(loaded.to_string(), tree.to_string());
  auto test = dataset(500, 77);
  EXPECT_DOUBLE_EQ(loaded.accuracy(test), tree.accuracy(test));
}

TEST(ModelIo, SingleLeafTree) {
  DecisionTree tree(data::ClassCounts{{{3, 9}}});
  TmpDir tmp;
  clouds::save_tree(tree, tmp.path("leaf.bin"));
  auto loaded = clouds::load_tree(tmp.path("leaf.bin"));
  EXPECT_EQ(loaded.live_count(), 1u);
  Record r{};
  EXPECT_EQ(loaded.classify(r), 1);
}

TEST(ModelIo, RejectsMissingFile) {
  TmpDir tmp;
  EXPECT_THROW((void)clouds::load_tree(tmp.path("nope.bin")),
               std::runtime_error);
}

TEST(ModelIo, RejectsCorruptMagic) {
  TmpDir tmp;
  {
    std::FILE* f = std::fopen(tmp.path("bad.bin").c_str(), "wb");
    const char junk[64] = "not a tree";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_THROW((void)clouds::load_tree(tmp.path("bad.bin")),
               std::runtime_error);
}

TEST(Tree, ExtractGraftRoundTrip) {
  auto train = dataset(3000, 11);
  CloudsBuilder builder{CloudsConfig{}};
  auto tree = builder.build(train);
  ASSERT_GT(tree.live_count(), 3u);

  // Extract a child subtree, graft it onto a fresh leaf, compare behaviour.
  const auto& root = tree.node(tree.root());
  ASSERT_FALSE(root.leaf);
  const auto sub = tree.extract(root.left);

  DecisionTree target(tree.node(root.left).counts);
  target.graft(target.root(), sub);

  auto test = dataset(1000, 111);
  for (const auto& r : test) {
    if (root.split.goes_left(r)) {
      // Records that would route into the left subtree classify the same.
      std::int32_t id = tree.root();
      EXPECT_EQ(target.classify(r), [&] {
        id = tree.node(id).left;
        while (!tree.node(id).leaf) {
          id = tree.node(id).split.goes_left(r) ? tree.node(id).left
                                                : tree.node(id).right;
        }
        return tree.node(id).label;
      }());
    }
  }
}

TEST(Tree, ExtractOfLeafIsOneNode) {
  DecisionTree tree(data::ClassCounts{{{5, 1}}});
  const auto sub = tree.extract(tree.root());
  ASSERT_EQ(sub.size(), 1u);
  EXPECT_TRUE(sub[0].leaf);
}

TEST(Tree, GraftRejectsInternalTarget) {
  auto train = dataset(1000, 13);
  CloudsBuilder builder{CloudsConfig{}};
  auto tree = builder.build(train);
  ASSERT_FALSE(tree.node(tree.root()).leaf);
  EXPECT_THROW(tree.graft(tree.root(), tree.extract(tree.root())),
               std::logic_error);
}

// ---- the one iterative walk vs a recursive oracle ----

/// The recursive walks the tree used before it had one iterative walk,
/// kept here as the oracle.  Only ever run on shallow trees.
struct RecursiveOracle {
  DecisionTree& tree;

  const TreeNode& at(std::int32_t id) const { return tree.node(id); }

  std::size_t leaves(std::int32_t id) const {
    return at(id).leaf ? 1 : leaves(at(id).left) + leaves(at(id).right);
  }
  std::size_t live(std::int32_t id) const {
    return at(id).leaf ? 1 : 1 + live(at(id).left) + live(at(id).right);
  }
  std::int32_t depth(std::int32_t id) const {
    if (at(id).leaf) return at(id).depth;
    return std::max({at(id).depth, depth(at(id).left), depth(at(id).right)});
  }
  void order(std::int32_t id, std::vector<std::int32_t>& out) const {
    out.push_back(id);
    if (at(id).leaf) return;
    order(at(id).left, out);
    order(at(id).right, out);
  }

  std::int32_t extract(std::int32_t id, std::vector<TreeNode>& out) const {
    const auto pos = static_cast<std::int32_t>(out.size());
    out.push_back(at(id));
    if (!at(id).leaf) {
      const auto l = extract(at(id).left, out);
      const auto r = extract(at(id).right, out);
      out[static_cast<std::size_t>(pos)].left = l;
      out[static_cast<std::size_t>(pos)].right = r;
    }
    return pos;
  }

  void print(std::int32_t id, std::ostringstream& out) const {
    const TreeNode& n = at(id);
    out << std::string(2 * static_cast<std::size_t>(n.depth), ' ');
    if (n.leaf) {
      out << "leaf class=" << static_cast<int>(n.label) << " counts=[";
      for (int k = 0; k < data::kNumClasses; ++k) {
        out << (k ? "," : "") << n.counts[static_cast<std::size_t>(k)];
      }
      out << "]\n";
      return;
    }
    const auto a = static_cast<std::size_t>(n.split.attr);
    if (n.split.kind == clouds::Split::Kind::kNumeric) {
      out << data::kNumericNames[a] << " <= " << n.split.threshold << "\n";
    } else {
      out << data::kCatNames[a] << " in {";
      const char* sep = "";
      for (int v = 0; v < data::kCatCardinality[a]; ++v) {
        if ((n.split.subset >> v) & 1u) {
          out << sep << v;
          sep = ",";
        }
      }
      out << "}\n";
    }
    print(n.left, out);
    print(n.right, out);
  }

  double prune(std::int32_t id, double split_bits, std::size_t& collapsed) {
    const double leaf_cost = clouds::mdl_leaf_cost(at(id).counts);
    if (at(id).leaf) return leaf_cost;
    const double subtree_cost = 1.0 + split_bits +
                                prune(at(id).left, split_bits, collapsed) +
                                prune(at(id).right, split_bits, collapsed);
    if (leaf_cost <= subtree_cost) {
      tree.collapse(id);
      ++collapsed;
      return leaf_cost;
    }
    return subtree_cost;
  }
};

std::string arena_bytes(const DecisionTree& tree) {
  const auto nodes = tree.serialize();
  std::string out(nodes.size() * sizeof(TreeNode), '\0');
  if (!nodes.empty()) std::memcpy(out.data(), nodes.data(), out.size());
  return out;
}

void expect_walks_match_oracle(const DecisionTree& tree) {
  DecisionTree copy = tree;
  const RecursiveOracle oracle{copy};
  EXPECT_EQ(tree.live_count(), oracle.live(tree.root()));
  EXPECT_EQ(tree.leaf_count(), oracle.leaves(tree.root()));
  EXPECT_EQ(tree.max_depth(), oracle.depth(tree.root()));
  std::ostringstream text;
  oracle.print(tree.root(), text);
  EXPECT_EQ(tree.to_string(), text.str());
  std::vector<std::int32_t> order;
  oracle.order(tree.root(), order);
  EXPECT_EQ(tree.preorder(tree.root()), order);
  for (const std::int32_t id : order) {
    std::vector<TreeNode> want;
    oracle.extract(id, want);
    const auto got = tree.extract(id);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(TreeNode)))
        << "extract(" << id << ")";
  }

  // Pruning: same decisions, same collapsed count, same arena bytes.
  DecisionTree iterative = tree;
  DecisionTree recursive = tree;
  const auto stats = clouds::mdl_prune(iterative);
  std::size_t collapsed = 0;
  RecursiveOracle{recursive}.prune(
      recursive.root(),
      std::log2(static_cast<double>(data::kNumAttributes)) +
          clouds::PruneConfig{}.split_value_bits,
      collapsed);
  EXPECT_EQ(stats.collapsed, collapsed);
  EXPECT_EQ(stats.nodes_before, oracle.live(tree.root()));
  EXPECT_EQ(stats.nodes_after, RecursiveOracle{recursive}.live(0));
  EXPECT_EQ(arena_bytes(iterative), arena_bytes(recursive));
}

DecisionTree noisy_tree(std::uint64_t seed) {
  AgrawalGenerator gen({.function = 2, .seed = seed, .label_noise = 0.15});
  return CloudsBuilder{CloudsConfig{}}.build(gen.make_range(0, 3000));
}

TEST(TreeWalk, TrainedTreeMatchesRecursiveOracle) {
  const auto tree = noisy_tree(21);
  ASSERT_GT(tree.live_count(), 50u);
  expect_walks_match_oracle(tree);
}

TEST(TreeWalk, PrunedTreeWithOrphansMatchesRecursiveOracle) {
  auto tree = noisy_tree(22);
  const auto stats = clouds::mdl_prune(tree);
  ASSERT_GT(stats.collapsed, 0u);
  // collapse() leaves the pruned subtrees' nodes behind as orphans.
  ASSERT_LT(tree.live_count(), tree.node_count());
  expect_walks_match_oracle(tree);
}

TEST(TreeWalk, GraftedTreeMatchesRecursiveOracle) {
  auto tree = noisy_tree(23);
  const auto donor = noisy_tree(24);
  const auto& donor_root = donor.node(donor.root());
  ASSERT_FALSE(donor_root.leaf);
  ASSERT_FALSE(donor.node(donor_root.right).leaf);
  // Graft a donor branch onto the deepest leaf of the left subtree.
  std::int32_t target = tree.node(tree.root()).left;
  while (!tree.node(target).leaf) target = tree.node(target).left;
  tree.graft(target, donor.extract(donor_root.right));
  clouds::mdl_prune(tree);  // orphans both in the host and the graft
  expect_walks_match_oracle(tree);
}

TEST(TreeWalk, DeepChainWalksComplete) {
  // Deep enough that a recursive walk overflows the default 8 MB stack.
  constexpr std::int32_t kLevels = 400'000;
  DecisionTree chain(data::ClassCounts{{{3, 3}}});
  clouds::Split split;
  split.attr = 0;
  std::int32_t at = chain.root();
  for (std::int32_t d = 0; d < kLevels; ++d) {
    at = chain.grow(at, split, {{{2, 2}}}, {{{1, 0}}}).first;
  }
  const auto nodes = static_cast<std::size_t>(2 * kLevels + 1);
  EXPECT_EQ(chain.live_count(), nodes);
  EXPECT_EQ(chain.leaf_count(), static_cast<std::size_t>(kLevels) + 1);
  EXPECT_EQ(chain.max_depth(), kLevels);
  EXPECT_EQ(chain.extract(chain.root()).size(), nodes);
  const auto stats = clouds::mdl_prune(chain);
  EXPECT_EQ(stats.nodes_before, nodes);
  EXPECT_EQ(stats.nodes_after, chain.live_count());
}

TEST(ParallelEval, MatchesSequentialConfusion) {
  const int p = 4;
  const std::uint64_t n = 4000;
  AgrawalGenerator gen({.function = 2, .seed = 5});
  auto train = gen.make_range(0, n);
  CloudsBuilder builder{CloudsConfig{}};
  auto tree = builder.build(train);
  const auto test = data::make_test_set(gen, n, 2000);
  const auto reference = clouds::evaluate(tree, test);

  mp::Runtime rt(p);
  std::mutex mu;
  clouds::Confusion combined{};
  rt.run([&](mp::Comm& comm) {
    // Strided shares of the test set.
    std::vector<Record> mine;
    for (std::size_t i = static_cast<std::size_t>(comm.rank());
         i < test.size(); i += p) {
      mine.push_back(test[i]);
    }
    const auto conf = pclouds::pclouds_evaluate(comm, tree, mine);
    if (comm.rank() == 0) {
      std::lock_guard lock(mu);
      combined = conf;
    }
  });
  EXPECT_EQ(combined.total(), reference.total());
  EXPECT_EQ(combined.correct(), reference.correct());
  EXPECT_DOUBLE_EQ(combined.accuracy(), reference.accuracy());
}

TEST(ParallelPrune, ReplicasStayIdentical) {
  const int p = 3;
  AgrawalGenerator gen({.function = 2, .seed = 9, .label_noise = 0.15});
  auto train = gen.make_range(0, 3000);
  CloudsBuilder builder{CloudsConfig{}};
  auto tree = builder.build(train);
  const auto unpruned = tree.live_count();

  mp::Runtime rt(p);
  std::mutex mu;
  std::vector<std::string> texts(static_cast<std::size_t>(p));
  rt.run([&](mp::Comm& comm) {
    auto replica = tree;  // each rank prunes its own copy
    const auto stats = pclouds::pclouds_prune(comm, replica);
    EXPECT_EQ(stats.nodes_before, unpruned);
    std::lock_guard lock(mu);
    texts[static_cast<std::size_t>(comm.rank())] = replica.to_string();
  });
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(texts[static_cast<std::size_t>(r)], texts[0]);
  }
}

}  // namespace
}  // namespace pdc
