#pragma once

// The decision tree produced by CLOUDS / pCLOUDS: a binary class
// discriminator whose internal nodes carry splitter points and whose leaves
// carry the dominant class of their partition.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "clouds/split.hpp"
#include "data/record.hpp"

namespace pdc::clouds {

struct TreeNode {
  bool leaf = true;
  std::int8_t label = 0;          ///< majority class (meaningful everywhere)
  data::ClassCounts counts{};     ///< class frequencies of the partition
  Split split{};                  ///< valid iff !leaf
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::int32_t depth = 0;
};

class DecisionTree {
 public:
  /// Creates a tree with a single root leaf.
  explicit DecisionTree(const data::ClassCounts& root_counts = {});

  std::int32_t root() const { return 0; }
  const TreeNode& node(std::int32_t id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  TreeNode& node(std::int32_t id) { return nodes_[static_cast<std::size_t>(id)]; }
  std::size_t node_count() const { return nodes_.size(); }

  /// Turns leaf `id` into an internal node with two fresh leaf children;
  /// returns {left_id, right_id}.
  std::pair<std::int32_t, std::int32_t> grow(std::int32_t id,
                                             const Split& split,
                                             const data::ClassCounts& left,
                                             const data::ClassCounts& right);

  /// Collapses the subtree under `id` back into a leaf (used by pruning).
  void collapse(std::int32_t id);

  std::int8_t classify(const data::Record& r) const;

  /// Fraction of records whose label the tree predicts correctly.
  double accuracy(std::span<const data::Record> records) const;

  /// Ids of the nodes reachable from `from` in preorder: a node, then its
  /// left subtree, then its right.  This is the one tree walk; it keeps an
  /// explicit stack, so no arena depth can overflow the call stack.  Read
  /// backwards, it visits every child before its parent.
  std::vector<std::int32_t> preorder(std::int32_t from) const;

  std::size_t leaf_count() const;
  std::int32_t max_depth() const;

  /// Nodes reachable from the root (collapse leaves orphans in the arena).
  std::size_t live_count() const;

  /// Human-readable dump, for examples and debugging.
  std::string to_string() const;

  /// Flat serialization of the whole node arena (TreeNode is trivially
  /// copyable, so subtrees can be shipped through the message-passing layer
  /// or stored on disk verbatim).  Struct padding is scrubbed to zero so
  /// the bytes — and everything derived from them: saved models,
  /// checkpoint blobs and their checksums — are deterministic.
  std::vector<TreeNode> serialize() const {
    std::vector<TreeNode> out(nodes_.size());
    if (out.empty()) return out;
    std::memset(static_cast<void*>(out.data()), 0,
                out.size() * sizeof(TreeNode));
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const TreeNode& n = nodes_[i];
      TreeNode& c = out[i];
      c.leaf = n.leaf;
      c.label = n.label;
      c.counts = n.counts;
      c.split.kind = n.split.kind;
      c.split.attr = n.split.attr;
      c.split.threshold = n.split.threshold;
      c.split.subset = n.split.subset;
      c.left = n.left;
      c.right = n.right;
      c.depth = n.depth;
    }
    return out;
  }
  static DecisionTree deserialize(std::vector<TreeNode> nodes);

  /// Replaces leaf `at` with the (serialized) subtree rooted at `sub[0]`.
  /// Used by pCLOUDS to graft the owner-built subtree of a small node into
  /// the replicated tree.  Depths are rebased onto `at`'s depth.  `sub` is
  /// validated like a deserialized arena (WireError if it is not a tree).
  void graft(std::int32_t at, const std::vector<TreeNode>& sub);

  /// Serializes the subtree rooted at `at` in the same layout graft()
  /// consumes: element 0 is the subtree root, children re-indexed into the
  /// compact array.  Used when a processor group hands its finished branch
  /// back to the rest of the machine.
  std::vector<TreeNode> extract(std::int32_t at) const;

 private:
  void set_majority(TreeNode& n);

  std::vector<TreeNode> nodes_;
};

static_assert(std::is_trivially_copyable_v<TreeNode>);

}  // namespace pdc::clouds
