#pragma once

// Compiled decision-tree models: the serving-side representation of a
// trained clouds::DecisionTree.
//
// The trainer's pointer-linked arena (48-byte nodes carrying class counts,
// split metadata and parent/child bookkeeping) is the right shape for
// growing and pruning, and the wrong shape for answering millions of
// predictions: every descent chases cold pointers and branches on the
// split kind.  compile() flattens the live tree into a contiguous
// breadth-first array of 16-byte nodes — attribute id, threshold or
// categorical mask, and the left-child index with the leaf tag in the low
// bit — so a descent touches one cache line per level and the step is
// predicated (both the numeric and the categorical outcome are computed,
// the right one selected) instead of branched.  Children of one node are
// adjacent, which is what makes the step branchless: next = first_child +
// !goes_left.
//
// The batch evaluator streams a struct-of-arrays RecordBlock through the
// array in lane chunks, keeping many independent descents in flight so the
// per-level loads overlap instead of serializing into one dependent chain.
// This is the layer the prediction server (serve/server.hpp) shards into
// replicas.
//
// Compiled models serialize to a byte-deterministic blob (field-wise
// little-endian codec, no struct padding on the wire) and deserialization
// re-validates every structural invariant, so a blob from disk can never
// index out of bounds or descend forever.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "clouds/tree.hpp"
#include "data/record.hpp"
#include "serve/record_block.hpp"

namespace pdc::serve {

/// Leading magic of a compiled-model blob ("Fcdp" on disk); pairs with
/// clouds::detail::kTreeMagic so model-file consumers can dispatch on the
/// first four bytes (clouds::peek_model_magic).
inline constexpr std::uint32_t kCompiledMagic = 0x70646346;

/// One node of the compiled model.  `meta` carries the leaf tag in bit 0;
/// the remaining bits are the first-child index (internal nodes — the
/// right child is first_child + 1) or the class label (leaves).  Internal
/// nodes test either `num[attr] <= threshold` (kind 0) or bit `cat[attr]`
/// of `mask` (kind 1); leaves keep kind/attr/threshold/mask zeroed so the
/// codec is canonical and the predicated step reads safe indices.
struct FlatNode {
  std::uint32_t meta = 1;
  std::uint16_t kind = 0;
  std::uint16_t attr = 0;
  float threshold = 0.0f;
  std::uint32_t mask = 0;

  bool is_leaf() const { return (meta & 1u) != 0; }
  std::uint32_t first_child() const { return meta >> 1; }
  std::int8_t label() const { return static_cast<std::int8_t>(meta >> 1); }

  friend bool operator==(const FlatNode&, const FlatNode&) = default;
};

// The serving blob must be the same bytes on every compiler: the node is
// trivially copyable, exactly 16 bytes, and padding-free (every byte is a
// field byte), and the codec below still writes it field-wise — the same
// scrub discipline as DecisionTree::serialize().
static_assert(std::is_trivially_copyable_v<FlatNode>);
static_assert(sizeof(FlatNode) == 16);
static_assert(sizeof(FlatNode::meta) + sizeof(FlatNode::kind) +
                  sizeof(FlatNode::attr) + sizeof(FlatNode::threshold) +
                  sizeof(FlatNode::mask) ==
              sizeof(FlatNode));

class CompiledTree {
 public:
  /// Flattens the live (reachable) part of `tree` breadth-first.  The
  /// result classifies every record exactly as `tree` does.
  static CompiledTree compile(const clouds::DecisionTree& tree);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const { return leaves_; }
  /// Depth of the deepest leaf (root = 0); every descent terminates in at
  /// most depth() steps.
  std::int32_t depth() const { return depth_; }
  std::span<const FlatNode> nodes() const { return nodes_; }

  /// Single-record branchless predicated descent over the packed 8-byte
  /// mirror: one load per level instead of a 16-byte node fetch.
  std::int8_t predict(const data::Record& r) const {
    const DenseNode* nd = dense_.data();
    std::uint32_t i = 0;
    std::uint32_t m = nd[0].meta2;
    while ((m & 1u) == 0) {
      const std::uint32_t payload = nd[i].payload;
      const std::uint32_t kind = (m >> 1) & 1u;
      const std::uint32_t attr = (m >> 2) & 7u;
      const std::size_t na = attr & (kind - 1u);
      const std::size_t ca = attr & (0u - kind);
      const bool num_left = r.num[na] <= std::bit_cast<float>(payload);
      const std::uint32_t cv =
          static_cast<std::uint32_t>(static_cast<std::uint8_t>(r.cat[ca])) &
          31u;
      const bool cat_left = ((payload >> cv) & 1u) != 0;
      const bool left = kind != 0 ? cat_left : num_left;
      i = (m >> 5) + static_cast<std::uint32_t>(!left);
      m = nd[i].meta2;
    }
    return static_cast<std::int8_t>(m >> 5);
  }

  /// Batch evaluation: one label per block row, written to `out`
  /// (out.size() >= block.size()).  Lane-chunked level-synchronous
  /// descent — up to kLanes independent descents advance one level per
  /// inner pass, so the node loads of different rows overlap.
  void predict_block(const RecordBlock& block,
                     std::span<std::int8_t> out) const;

  /// Fraction of block rows whose stored label the model reproduces.
  double accuracy(const RecordBlock& block) const;

  /// Index-checked descent for the structure fuzzer: throws
  /// std::runtime_error on any out-of-bounds node index and when the
  /// descent fails to reach a leaf within depth() steps.  `steps_out`
  /// (optional) receives the number of edges walked.
  std::int8_t predict_checked(const data::Record& r,
                              int* steps_out = nullptr) const;

  /// Byte-deterministic serialization (header + field-wise nodes).
  std::vector<std::byte> to_bytes() const;
  /// Parses and fully validates a blob; throws std::runtime_error on a
  /// truncated document, bad magic/version, trailing bytes, or any
  /// structural violation (dangling child index, children not after the
  /// parent, malformed leaf/internal fields, wrong depth or leaf count).
  static CompiledTree from_bytes(std::span<const std::byte> bytes);

  friend bool operator==(const CompiledTree& a, const CompiledTree& b) {
    return a.nodes_ == b.nodes_ && a.depth_ == b.depth_ &&
           a.leaves_ == b.leaves_;
  }

 private:
  /// Hot-path mirror of a FlatNode, packed to 8 bytes so the descent
  /// footprint is half the wire format's and a step issues one load.
  /// meta2: bit 0 leaf tag, bit 1 split kind, bits 2-4 attribute id,
  /// bits 5-31 first-child index (internal) or class label (leaf).
  /// payload: threshold bits (numeric), subset mask (categorical), 0
  /// (leaf).  Derived, never serialized — the public blob stays the
  /// 16-byte FlatNode array; the 27-bit child field is why node counts
  /// are capped at 2^27.
  struct DenseNode {
    std::uint32_t meta2 = 1;
    std::uint32_t payload = 0;
  };
  static_assert(sizeof(DenseNode) == 8);

  /// Rebuilds dense_ from nodes_; called after compile() and after
  /// from_bytes() validation.
  void build_dense();

  /// Re-derives depth/leaf counts and throws unless every structural
  /// invariant holds.  Called by from_bytes(); compile() satisfies the
  /// invariants by construction (asserted in tests, not re-checked on the
  /// hot path).
  void validate_and_index();

  std::vector<FlatNode> nodes_;
  std::vector<DenseNode> dense_;  // pdc: nonwire(derived descent mirror, rebuilt by build_dense() on both sides)
  std::int32_t depth_ = 0;
  std::size_t leaves_ = 1;
};

/// Blob persistence at the run boundary (same role as clouds::save_tree /
/// load_tree for the interpreted model).
void save_compiled(const CompiledTree& tree,
                   const std::filesystem::path& path);
CompiledTree load_compiled(const std::filesystem::path& path);

}  // namespace pdc::serve
