#include "serve/compiled_tree.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "common/wire.hpp"
#include "mp/serialize.hpp"
#include "obs/json.hpp"

namespace pdc::serve {

namespace {

inline constexpr std::uint32_t kMagic = kCompiledMagic;
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kNodeBytes = 16;

[[noreturn]] void reject(const std::string& why) {
  throw WireError("CompiledTree: " + why);
}

}  // namespace

CompiledTree CompiledTree::compile(const clouds::DecisionTree& tree) {
  // Pass 1: breadth-first order over the LIVE nodes (collapse can leave
  // orphans in the trainer's arena; they are not compiled).  Enqueuing
  // left and right together is what makes sibling slots adjacent, which
  // the branchless step (next = first_child + !left) relies on.
  std::vector<std::int32_t> order;
  // pdc: incore(model compilation staging: one index per live tree node, bounded by the trained model's size)
  order.reserve(tree.node_count());
  order.push_back(tree.root());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const clouds::TreeNode& n = tree.node(order[i]);
    if (!n.leaf) {
      order.push_back(n.left);
      order.push_back(n.right);
    }
  }
  std::vector<std::uint32_t> flat_of(tree.node_count(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    flat_of[static_cast<std::size_t>(order[i])] =
        static_cast<std::uint32_t>(i);
  }

  // Pass 2: emit 16-byte nodes, canonically zeroed (a numeric node carries
  // no mask, a categorical node no threshold, a leaf neither) so the blob
  // bytes are a pure function of the model's behaviour.
  CompiledTree out;
  out.nodes_.resize(order.size());
  std::vector<std::int32_t> dep(order.size(), 0);
  out.leaves_ = 0;
  out.depth_ = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const clouds::TreeNode& src = tree.node(order[i]);
    FlatNode& dst = out.nodes_[i];
    if (src.leaf) {
      dst.meta = (static_cast<std::uint32_t>(
                      static_cast<std::uint8_t>(src.label))
                  << 1) |
                 1u;
      ++out.leaves_;
      out.depth_ = std::max(out.depth_, dep[i]);
    } else {
      const std::uint32_t fc =
          flat_of[static_cast<std::size_t>(src.left)];
      dst.meta = fc << 1;
      dst.kind = src.split.kind == clouds::Split::Kind::kCategorical ? 1 : 0;
      dst.attr = static_cast<std::uint16_t>(src.split.attr);
      if (dst.kind == 0) {
        dst.threshold = src.split.threshold;
      } else {
        dst.mask = src.split.subset;
      }
      dep[fc] = dep[fc + 1] = dep[i] + 1;
    }
  }
  out.build_dense();
  return out;
}

void CompiledTree::build_dense() {
  if (nodes_.size() >= (std::size_t{1} << 27)) {
    reject("node count out of range");
  }
  dense_.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const FlatNode& nd = nodes_[i];
    DenseNode& d = dense_[i];
    if (nd.is_leaf()) {
      d.meta2 = 1u | ((nd.meta >> 1) << 5);
      d.payload = 0;
    } else {
      d.meta2 = (static_cast<std::uint32_t>(nd.kind) << 1) |
                (static_cast<std::uint32_t>(nd.attr) << 2) |
                ((nd.meta >> 1) << 5);
      d.payload = nd.kind != 0 ? nd.mask
                               : std::bit_cast<std::uint32_t>(nd.threshold);
    }
  }
}

void CompiledTree::predict_block(const RecordBlock& block,
                                 std::span<std::int8_t> out) const {
  const std::size_t n = block.size();
  const float* numc[data::kNumNumeric];
  const std::int8_t* catc[data::kNumCategorical];
  for (int a = 0; a < data::kNumNumeric; ++a) {
    numc[a] = block.num(a).data();
  }
  for (int a = 0; a < data::kNumCategorical; ++a) {
    catc[a] = block.cat(a).data();
  }

  // Lane-compacted level-synchronous descent.  Each chunk keeps a dense
  // list of still-descending lanes; a lane whose current node is a leaf
  // writes its label and leaves the list, so the work per chunk is the sum
  // of actual descent depths rather than lanes x max depth.
  //
  // Three things keep the per-step cost near the machine floor:
  //  - The step is completely branch-free.  Every lane stores meta>>1 to
  //    out[row] unconditionally (garbage while internal, the true label on
  //    the leaf step — last write wins) and compaction is
  //    `kept += !is_leaf`, so a mispredict-prone retire branch never
  //    enters the pipeline and the node loads of all lanes overlap.
  //  - The chunk's attribute columns are staged once into a 32-byte-per-
  //    lane AoS buffer (floats + the three categorical bytes packed into
  //    one word), and the descent walks the packed 8-byte node mirror, so
  //    a step issues exactly four loads — packed lane state, one node
  //    word, one float, one categorical word — all but the node word
  //    L1-resident.
  //  - The next-level node index is known a full level early; prefetching
  //    it here means the lanes processed in between give the miss time to
  //    resolve, which is the payoff of level-synchronous order.
  //  - Labels land in a chunk-local buffer (not out[], whose char-typed
  //    stores would alias everything and fence the schedule) and the
  //    compaction double-buffers the lane state, so every load in the
  //    step is provably independent of every store and the compiler can
  //    software-pipeline the lanes.
  constexpr std::size_t kLanes = 256;
  struct LaneRow {
    float num[data::kNumNumeric];
    std::uint32_t cats;
    std::uint32_t pad_;
  };
  static_assert(sizeof(LaneRow) == 32);
  LaneRow rows[kLanes];
  // Lane state: chunk-local row in the high word, node index in the low.
  std::uint64_t state_a[kLanes];
  std::uint64_t state_b[kLanes];
  std::int8_t labels[kLanes];
  const char* node_bytes = reinterpret_cast<const char*>(dense_.data());  // pdc-lint: allow(PDC010) -- in-memory descent mirror, not wire bytes

  for (std::size_t base = 0; base < n; base += kLanes) {
    const std::size_t lanes = std::min(kLanes, n - base);
    for (std::size_t l = 0; l < lanes; ++l) {
      for (int a = 0; a < data::kNumNumeric; ++a) {
        rows[l].num[a] = numc[a][base + l];
      }
      std::uint32_t cats = 0;
      for (int a = 0; a < data::kNumCategorical; ++a) {
        cats |= static_cast<std::uint32_t>(
                    static_cast<std::uint8_t>(catc[a][base + l]))
                << (8 * a);
      }
      rows[l].cats = cats;
      state_a[l] = static_cast<std::uint64_t>(l) << 32;  // node index 0
    }
    std::size_t active = lanes;
    std::uint64_t* cur = state_a;
    std::uint64_t* nxt = state_b;
    // depth_ + 1 levels: the leaf itself costs the final step.
    for (std::int32_t d = 0; d <= depth_ && active != 0; ++d) {
      std::size_t kept = 0;
      for (std::size_t s = 0; s < active; ++s) {
        const std::uint64_t st = cur[s];
        const std::uint32_t i = static_cast<std::uint32_t>(st);
        const std::uint32_t l = static_cast<std::uint32_t>(st >> 32);
        std::uint64_t w;
        std::memcpy(&w, node_bytes + std::size_t{i} * sizeof(DenseNode), 8);  // pdc-lint: allow(PDC010) -- packed node word load from the validated mirror
        const std::uint32_t m = static_cast<std::uint32_t>(w);
        const std::uint32_t payload = static_cast<std::uint32_t>(w >> 32);
        const std::uint32_t kind = (m >> 1) & 1u;
        const std::uint32_t attr = (m >> 2) & 7u;
        const std::size_t na = attr & (kind - 1u);
        const std::uint32_t ca = attr & (0u - kind);
        const std::uint32_t num_left = static_cast<std::uint32_t>(
            rows[l].num[na] <= std::bit_cast<float>(payload));
        const std::uint32_t cv = (rows[l].cats >> (ca << 3)) & 31u;
        const std::uint32_t cat_left = (payload >> cv) & 1u;
        const std::uint32_t left =
            (cat_left & kind) | (num_left & (kind ^ 1u));
        const std::uint32_t next = (m >> 5) + (left ^ 1u);
        __builtin_prefetch(node_bytes + std::size_t{next} * sizeof(DenseNode),
                           0, 3);
        labels[l] = static_cast<std::int8_t>(m >> 5);
        nxt[kept] = (static_cast<std::uint64_t>(l) << 32) | next;
        kept += static_cast<std::size_t>((m & 1u) ^ 1u);
      }
      active = kept;
      std::swap(cur, nxt);
    }
    std::memcpy(&out[base], labels, lanes);  // pdc-lint: allow(PDC010) -- chunk-local label buffer flush, not wire bytes
  }
}

double CompiledTree::accuracy(const RecordBlock& block) const {
  if (block.empty()) return 1.0;
  std::vector<std::int8_t> got(block.size());
  predict_block(block, got);
  const auto want = block.labels();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(block.size());
}

std::int8_t CompiledTree::predict_checked(const data::Record& r,
                                          int* steps_out) const {
  std::uint32_t i = 0;
  int steps = 0;
  while (true) {
    if (i >= nodes_.size()) reject("descent left the node array");
    const FlatNode& n = nodes_[i];
    if (n.is_leaf()) break;
    if (steps >= depth_) reject("descent exceeded the compiled depth");
    const std::size_t na = n.kind ? 0u : n.attr;
    const std::size_t ca = n.kind ? n.attr : 0u;
    const bool num_left = r.num[na] <= n.threshold;
    const std::uint32_t cv = static_cast<std::uint8_t>(r.cat[ca]) & 31u;
    const bool cat_left = ((n.mask >> cv) & 1u) != 0;
    const bool left = n.kind ? cat_left : num_left;
    i = n.first_child() + static_cast<std::uint32_t>(!left);
    ++steps;
  }
  if (steps_out) *steps_out = steps;
  return static_cast<std::int8_t>(nodes_[i].meta >> 1);
}

std::vector<std::byte> CompiledTree::to_bytes() const {
  mp::WireWriter out;
  out.put_raw(kMagic);
  out.put_raw(kVersion);
  out.put_raw<std::uint64_t>(nodes_.size());
  out.put_raw(static_cast<std::uint32_t>(depth_));
  out.put_raw(static_cast<std::uint32_t>(leaves_));
  for (const FlatNode& n : nodes_) {
    out.put_raw(n.meta);
    out.put_raw(n.kind);
    out.put_raw(n.attr);
    out.put_raw(n.threshold);
    out.put_raw(n.mask);
  }
  return out.take();
}

CompiledTree CompiledTree::from_bytes(std::span<const std::byte> bytes) {
  mp::WireReader in(bytes, "CompiledTree");
  if (in.get_raw<std::uint32_t>() != kMagic) reject("bad magic");
  if (in.get_raw<std::uint32_t>() != kVersion) reject("unsupported version");
  const auto count = in.get_raw<std::uint64_t>();
  const auto depth = in.get_raw<std::uint32_t>();
  const auto leaves = in.get_raw<std::uint32_t>();
  if (count == 0) reject("empty model");
  // The packed descent mirror keeps first-child in 27 bits (see
  // CompiledTree::DenseNode), which bounds acceptable models.
  if (count >= (std::uint64_t{1} << 27)) reject("node count out of range");
  // Depth and leaf count are re-derived and cross-checked structurally in
  // validate_and_index(), but reject absurd headers before they are
  // narrowed into the signed/int32 members below.
  if (depth >= (std::uint32_t{1} << 27)) reject("depth out of range");
  if (leaves > count) reject("leaf count exceeds node count");
  if (count > in.remaining() / kNodeBytes) reject("truncated node array");

  CompiledTree out;
  out.nodes_.resize(static_cast<std::size_t>(count));
  out.depth_ = static_cast<std::int32_t>(depth);
  out.leaves_ = leaves;
  for (FlatNode& n : out.nodes_) {
    n.meta = in.get_raw<std::uint32_t>();
    n.kind = in.get_raw<std::uint16_t>();
    n.attr = in.get_raw<std::uint16_t>();
    n.threshold = in.get_raw<float>();
    n.mask = in.get_raw<std::uint32_t>();
  }
  in.finish();
  out.validate_and_index();
  return out;
}

void CompiledTree::validate_and_index() {
  const std::size_t n = nodes_.size();
  if (n == 0) reject("empty model");
  std::vector<std::uint8_t> refs(n, 0);
  std::vector<std::int32_t> dep(n, 0);
  std::size_t leaves = 0;
  std::int32_t maxd = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const FlatNode& nd = nodes_[i];
    if (nd.is_leaf()) {
      ++leaves;
      if ((nd.meta >> 1) >= static_cast<std::uint32_t>(data::kNumClasses)) {
        reject("leaf label out of range");
      }
      if (nd.kind != 0 || nd.attr != 0 || nd.threshold != 0.0f ||
          nd.mask != 0) {
        reject("leaf carries split fields");
      }
    } else {
      if (nd.kind > 1) reject("bad split kind");
      const int limit =
          nd.kind ? data::kNumCategorical : data::kNumNumeric;
      if (nd.attr >= static_cast<std::uint16_t>(limit)) {
        reject("attribute id out of range");
      }
      if (nd.kind == 1 && nd.threshold != 0.0f) {
        reject("categorical node carries a threshold");
      }
      if (nd.kind == 0 && nd.mask != 0) reject("numeric node carries a mask");
      const std::uint64_t fc = nd.first_child();
      if (fc <= i) reject("children must come after the parent");
      if (fc + 1 >= n) reject("dangling child index");
      ++refs[static_cast<std::size_t>(fc)];
      ++refs[static_cast<std::size_t>(fc) + 1];
    }
  }
  if (refs[0] != 0) reject("root is referenced as a child");
  for (std::size_t i = 1; i < n; ++i) {
    if (refs[i] != 1) reject("node not referenced exactly once");
  }
  // Children come strictly after parents, so one forward pass settles all
  // depths; only then do leaves know theirs.
  for (std::size_t i = 0; i < n; ++i) {
    if (!nodes_[i].is_leaf()) {
      const std::size_t fc = nodes_[i].first_child();
      dep[fc] = dep[fc + 1] = dep[i] + 1;
    } else {
      maxd = std::max(maxd, dep[i]);
    }
  }
  if (maxd != depth_) reject("header depth does not match the structure");
  if (leaves != leaves_) {
    reject("header leaf count does not match the structure");
  }
  build_dense();
}

void save_compiled(const CompiledTree& tree,
                   const std::filesystem::path& path) {
  obs::write_bytes_file(path.string(), tree.to_bytes());
}

CompiledTree load_compiled(const std::filesystem::path& path) {
  return CompiledTree::from_bytes(obs::read_bytes_file(path.string()));
}

}  // namespace pdc::serve
