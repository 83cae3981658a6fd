#include "clouds/prune.hpp"

#include <cmath>
#include <vector>

#include "data/record.hpp"

namespace pdc::clouds {

double mdl_leaf_cost(const data::ClassCounts& counts) {
  const double n = static_cast<double>(data::total(counts));
  if (n <= 0.0) return 1.0;
  double bits = 0.0;
  for (auto c : counts) {
    if (c > 0) {
      const double f = static_cast<double>(c) / n;
      bits += -static_cast<double>(c) * std::log2(f);
    }
  }
  const double param_bits = 0.5 * (data::kNumClasses - 1) * std::log2(n + 1);
  return 1.0 + bits + param_bits;
}

PruneStats mdl_prune(DecisionTree& tree, const PruneConfig& cfg) {
  const auto order = tree.preorder(tree.root());
  PruneStats stats;
  stats.nodes_before = order.size();
  const double split_bits =
      std::log2(static_cast<double>(data::kNumAttributes)) +
      cfg.split_value_bits;

  // Bottom-up: the reversed preorder reaches both children before their
  // parent, so cost[] holds the MDL cost of each (possibly pruned) child
  // subtree by the time its parent decides.
  std::vector<double> cost(tree.node_count(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::int32_t id = *it;
    const TreeNode& n = tree.node(id);
    const double leaf_cost = mdl_leaf_cost(n.counts);
    double best = leaf_cost;
    if (!n.leaf) {
      const double subtree_cost =
          1.0 + split_bits + cost[static_cast<std::size_t>(n.left)] +
          cost[static_cast<std::size_t>(n.right)];
      if (leaf_cost <= subtree_cost) {
        tree.collapse(id);
        ++stats.collapsed;
      } else {
        best = subtree_cost;
      }
    }
    cost[static_cast<std::size_t>(id)] = best;
  }
  stats.nodes_after = tree.live_count();
  return stats;
}

}  // namespace pdc::clouds
