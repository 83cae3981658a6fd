#include "clouds/tree.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <sstream>

#include "common/wire.hpp"

namespace pdc::clouds {

namespace {

// Structural validation of a deserialized node arena.  The bytes may
// come from a corrupt model file, checkpoint blob or subtree message, so
// every field that later feeds an array index or a tree walk is
// range-checked before the arena is adopted.  bool/enum octets are
// inspected as raw bytes: a flipped bit must be rejected here, not loaded
// through a bool lvalue.
void validate_arena(const std::vector<TreeNode>& nodes) {
  const auto count = static_cast<std::int32_t>(nodes.size());
  // At most one parent per node: a child shared by two links would make
  // every walk, and the compiled serve layout, exponential in the arena
  // size.  collapse() leaves orphans, so no parent at all is fine.
  std::vector<std::uint8_t> has_parent(nodes.size(), 0);
  for (std::int32_t i = 0; i < count; ++i) {
    const TreeNode& n = nodes[static_cast<std::size_t>(i)];
    std::uint8_t leaf_byte = 0;
    std::uint8_t kind_byte = 0;
    std::memcpy(&leaf_byte, &n.leaf, 1);  // pdc-lint: allow(PDC010) -- byte-level inspection of untrusted bool, deliberately not a bool load
    std::memcpy(&kind_byte, &n.split.kind, 1);  // pdc-lint: allow(PDC010) -- byte-level inspection of untrusted enum octet
    if (leaf_byte > 1) {
      throw WireError("DecisionTree: node leaf flag is not a bool");
    }
    if (n.label < 0 || n.label >= data::kNumClasses) {
      throw WireError("DecisionTree: node label out of class range");
    }
    if (leaf_byte == 1) continue;
    if (kind_byte > 1) {
      throw WireError("DecisionTree: split kind out of range");
    }
    const int limit = n.split.kind == Split::Kind::kNumeric
                          ? data::kNumNumeric
                          : data::kNumCategorical;
    if (n.split.attr < 0 || n.split.attr >= limit) {
      throw WireError("DecisionTree: split attribute out of range");
    }
    // Children always live later in the arena (grow/graft append), so
    // strictly increasing indices double as a termination proof for
    // every walk.
    if (n.left <= i || n.left >= count || n.right <= i ||
        n.right >= count) {
      throw WireError("DecisionTree: child index out of range");
    }
    for (const std::int32_t child : {n.left, n.right}) {
      auto& seen = has_parent[static_cast<std::size_t>(child)];
      if (seen != 0) {
        throw WireError("DecisionTree: node has more than one parent");
      }
      seen = 1;
    }
  }
}

}  // namespace

DecisionTree::DecisionTree(const data::ClassCounts& root_counts) {
  TreeNode root;
  root.counts = root_counts;
  set_majority(root);
  nodes_.push_back(root);
}

void DecisionTree::set_majority(TreeNode& n) {
  int best = 0;
  for (int k = 1; k < data::kNumClasses; ++k) {
    if (n.counts[static_cast<std::size_t>(k)] >
        n.counts[static_cast<std::size_t>(best)]) {
      best = k;
    }
  }
  n.label = static_cast<std::int8_t>(best);
}

std::pair<std::int32_t, std::int32_t> DecisionTree::grow(
    std::int32_t id, const Split& split, const data::ClassCounts& left,
    const data::ClassCounts& right) {
  const auto lid = static_cast<std::int32_t>(nodes_.size());
  const auto rid = lid + 1;
  TreeNode l;
  l.counts = left;
  l.depth = node(id).depth + 1;
  set_majority(l);
  TreeNode r;
  r.counts = right;
  r.depth = node(id).depth + 1;
  set_majority(r);
  nodes_.push_back(l);
  nodes_.push_back(r);

  TreeNode& parent = node(id);
  parent.leaf = false;
  parent.split = split;
  parent.left = lid;
  parent.right = rid;
  return {lid, rid};
}

void DecisionTree::collapse(std::int32_t id) {
  TreeNode& n = node(id);
  n.leaf = true;
  n.left = -1;
  n.right = -1;
  set_majority(n);
}

std::int8_t DecisionTree::classify(const data::Record& r) const {
  std::int32_t id = root();
  while (!node(id).leaf) {
    id = node(id).split.goes_left(r) ? node(id).left : node(id).right;
  }
  return node(id).label;
}

double DecisionTree::accuracy(std::span<const data::Record> records) const {
  if (records.empty()) return 1.0;
  std::size_t correct = 0;
  for (const auto& r : records) {
    if (classify(r) == r.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(records.size());
}

std::vector<std::int32_t> DecisionTree::preorder(std::int32_t from) const {
  std::vector<std::int32_t> order;
  std::vector<std::int32_t> stack{from};
  while (!stack.empty()) {
    const std::int32_t id = stack.back();
    stack.pop_back();
    order.push_back(id);
    const TreeNode& n = node(id);
    if (!n.leaf) {
      stack.push_back(n.right);  // popped after the whole left subtree
      stack.push_back(n.left);
    }
  }
  return order;
}

std::size_t DecisionTree::leaf_count() const {
  const auto order = preorder(root());
  return static_cast<std::size_t>(
      std::count_if(order.begin(), order.end(),
                    [&](std::int32_t id) { return node(id).leaf; }));
}

std::int32_t DecisionTree::max_depth() const {
  std::int32_t deepest = 0;
  for (const std::int32_t id : preorder(root())) {
    deepest = std::max(deepest, node(id).depth);
  }
  return deepest;
}

std::size_t DecisionTree::live_count() const {
  return preorder(root()).size();
}

// pdc: nonwire(bulk decoder: adopts the serialized arena wholesale after
//              structural validation; per-field reads live in
//              validate_arena, not in the codec itself)
DecisionTree DecisionTree::deserialize(std::vector<TreeNode> nodes) {
  validate_arena(nodes);
  DecisionTree t;
  if (!nodes.empty()) t.nodes_ = std::move(nodes);
  return t;
}

void DecisionTree::graft(std::int32_t at, const std::vector<TreeNode>& sub) {
  if (sub.empty()) return;
  if (!node(at).leaf) {
    throw std::logic_error("DecisionTree::graft: target must be a leaf");
  }
  // `sub` arrives from a checkpoint or another processor group: it must
  // be a tree in the layout extract() emits before it joins the arena.
  validate_arena(sub);
  const auto offset = static_cast<std::int32_t>(nodes_.size());
  const std::int32_t base_depth = node(at).depth;

  // Copy the subtree root onto the target leaf, children into the arena.
  auto rebase = [&](TreeNode n, std::int32_t depth_delta) {
    n.depth += depth_delta;
    if (!n.leaf) {
      // Child index 0 in `sub` is the root and never a child; the offset
      // maps sub-index i (>0) to arena index offset + i - 1.
      n.left += offset - 1;
      n.right += offset - 1;
    }
    return n;
  };

  const std::int32_t depth_delta = base_depth - sub[0].depth;
  nodes_[static_cast<std::size_t>(at)] = rebase(sub[0], depth_delta);
  for (std::size_t i = 1; i < sub.size(); ++i) {
    nodes_.push_back(rebase(sub[i], depth_delta));
  }
}

std::vector<TreeNode> DecisionTree::extract(std::int32_t at) const {
  // graft() expects: sub[0] is the root; an internal sub[i] has children at
  // sub-array indices left/right (>= 1).  Emit in preorder and re-index the
  // child links to the copies' positions.
  const auto order = preorder(at);
  std::vector<std::int32_t> pos(nodes_.size(), -1);
  std::vector<TreeNode> out;
  out.reserve(order.size());
  for (const std::int32_t id : order) {
    pos[static_cast<std::size_t>(id)] = static_cast<std::int32_t>(out.size());
    out.push_back(node(id));
  }
  for (TreeNode& n : out) {
    if (!n.leaf) {
      n.left = pos[static_cast<std::size_t>(n.left)];
      n.right = pos[static_cast<std::size_t>(n.right)];
    }
  }
  return out;
}

std::string DecisionTree::to_string() const {
  std::ostringstream out;
  for (const std::int32_t id : preorder(root())) {
    const TreeNode& n = node(id);
    for (int d = 0; d < n.depth; ++d) out << "  ";
    if (n.leaf) {
      out << "leaf class=" << static_cast<int>(n.label) << " counts=[";
      for (int k = 0; k < data::kNumClasses; ++k) {
        out << (k ? "," : "") << n.counts[static_cast<std::size_t>(k)];
      }
      out << "]\n";
    } else if (n.split.kind == Split::Kind::kNumeric) {
      out << data::kNumericNames[static_cast<std::size_t>(n.split.attr)]
          << " <= " << n.split.threshold << "\n";
    } else {
      out << data::kCatNames[static_cast<std::size_t>(n.split.attr)]
          << " in {";
      bool first = true;
      for (int v = 0;
           v < data::kCatCardinality[static_cast<std::size_t>(n.split.attr)];
           ++v) {
        if ((n.split.subset >> v) & 1u) {
          out << (first ? "" : ",") << v;
          first = false;
        }
      }
      out << "}\n";
    }
  }
  return out.str();
}

}  // namespace pdc::clouds
