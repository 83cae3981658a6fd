// Wire-codec fuzz battery: every serialized format in the tree round-trips
// byte-identically, and a seeded single-byte-mutation sweep (plus prefix
// truncations) over each blob must either decode to a validated value or
// throw a typed error — never crash, never read past the buffer.  The
// sanitizer CI job runs this under ASan, which turns any over-read the
// hardened decoders miss into a hard failure.
//
// Formats covered: QuantileSketch blobs, the pdcT tree file, the pdcF
// compiled-tree blob, the voted-stats varint stream, CloudsProblem
// checkpoint state, the CheckpointStore manifest, and DcDriver checkpoint
// state.  The three formats that carry tree arenas (pdcT, pdcF and
// CloudsProblem state) also get structural mutants that rewrite child
// links: every accepted arena must be a tree, so it compiles to (or keeps)
// no more nodes than it holds.  A last test pins every format's bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "clouds/builder.hpp"
#include "clouds/model_io.hpp"
#include "clouds/quantile_sketch.hpp"
#include "clouds/splitters.hpp"
#include "common/wire.hpp"
#include "data/agrawal.hpp"
#include "data/dataset.hpp"
#include "fault/checkpoint.hpp"
#include "io/local_disk.hpp"
#include "io/scratch.hpp"
#include "mp/clock.hpp"
#include "mp/cost_model.hpp"
#include "mp/machine.hpp"
#include "mp/runtime.hpp"
#include "mp/serialize.hpp"
#include "obs/json.hpp"
#include "pclouds/combiners.hpp"
#include "pclouds/pclouds.hpp"
#include "pclouds/problem.hpp"
#include "pclouds/stats_codec.hpp"
#include "serve/compiled_tree.hpp"

namespace pdc {
namespace {

using clouds::DecisionTree;
using clouds::NodeStats;
using clouds::QuantileSketch;
using clouds::TreeNode;
using data::AgrawalGenerator;
using data::Record;

constexpr int kMutations = 128;   // single-byte corruptions per format
constexpr int kTruncations = 24;  // prefix cuts per format

/// Applies `decode` to kMutations seeded single-byte corruptions and
/// kTruncations seeded prefix cuts of `seed`.  The decode must return
/// normally (validated accept) or throw a std::exception (clean reject);
/// anything else — crash, hang, sanitizer trip — fails the test run.
template <class Bytes, class Decode>
void fuzz_bytes(const Bytes& seed, std::uint64_t rng_seed,
                const Decode& decode) {
  ASSERT_FALSE(seed.empty());
  std::mt19937_64 rng(rng_seed);
  std::uniform_int_distribution<std::size_t> pos_dist(0, seed.size() - 1);
  std::uniform_int_distribution<int> xor_dist(1, 255);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    Bytes bytes = seed;
    const std::size_t pos = pos_dist(rng);
    bytes[pos] = static_cast<typename Bytes::value_type>(
        static_cast<unsigned char>(bytes[pos]) ^
        static_cast<unsigned char>(xor_dist(rng)));
    try {
      decode(bytes);
      ++accepted;
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  EXPECT_EQ(accepted + rejected, kMutations);
  for (int i = 0; i < kTruncations; ++i) {
    const Bytes bytes(seed.begin(),
                      seed.begin() + static_cast<std::ptrdiff_t>(
                                         pos_dist(rng)));
    try {
      decode(bytes);
    } catch (const std::exception&) {
    }
  }
}

std::vector<Record> agrawal_records(std::size_t n, std::uint64_t seed) {
  AgrawalGenerator gen({.function = 2, .seed = seed});
  return gen.make_range(0, n);
}

/// Applies `decode` to kMutations seeded structural mutants of `seed`,
/// each rewriting the child links of one internal node: both links onto
/// one child, a link onto another node's child, a link to an arbitrary
/// index, or the two links swapped.  The decode must return normally or
/// throw a std::exception; at least the shared-child mutants must throw.
template <class Decode>
void fuzz_child_links(const std::vector<TreeNode>& seed,
                      std::uint64_t rng_seed, const Decode& decode) {
  std::vector<std::size_t> internal;
  for (std::size_t i = 0; i < seed.size(); ++i) {
    if (!seed[i].leaf) internal.push_back(i);
  }
  ASSERT_GE(internal.size(), 2u);
  std::mt19937_64 rng(rng_seed);
  const auto pick = [&] { return internal[rng() % internal.size()]; };
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    auto nodes = seed;
    TreeNode& n = nodes[pick()];
    const TreeNode& other = nodes[pick()];
    switch (i % 4) {
      case 0: n.right = n.left; break;
      case 1: n.left = other.right; break;
      case 2:
        n.right = static_cast<std::int32_t>(rng() % (nodes.size() + 1)) - 1;
        break;
      default: std::swap(n.left, n.right); break;
    }
    try {
      decode(nodes);
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, kMutations / 4);
}

/// An accepted arena is a tree: no walk or compiled layout outgrows it.
void expect_linear(const DecisionTree& tree) {
  EXPECT_LE(tree.live_count(), tree.node_count());
  EXPECT_LE(serve::CompiledTree::compile(tree).node_count(),
            tree.node_count());
}

/// 64-bit FNV-1a over the bytes of a contiguous container.
template <class Bytes>
std::uint64_t digest(const Bytes& bytes) {
  return fault::fnv1a64(std::as_bytes(std::span(bytes)));
}

// ------------------------------------------------ QuantileSketch ---

QuantileSketch seeded_sketch() {
  QuantileSketch s(64);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> dist(-1000.0f, 1000.0f);
  for (int i = 0; i < 4000; ++i) s.add(dist(rng));
  return s;
}

TEST(CodecFuzz, QuantileSketchRoundTripsByteIdentically) {
  const auto s = seeded_sketch();
  const auto bytes = s.serialize();
  mp::WireReader in(bytes, "sketch");
  const auto back = QuantileSketch::deserialize(in);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(back.serialize(), bytes);
  EXPECT_EQ(back.count(), s.count());
  for (const double phi : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(back.quantile(phi), s.quantile(phi));
  }
}

TEST(CodecFuzz, QuantileSketchSurvivesMutations) {
  const auto bytes = seeded_sketch().serialize();
  fuzz_bytes(bytes, 0x51eef001, [](const std::vector<std::byte>& b) {
    mp::WireReader in(b, "sketch");
    auto s = QuantileSketch::deserialize(in);
    // A decode that validates must also be safe to query.
    (void)s.quantile(0.5);
    (void)s.boundaries(8);
  });
}

// ------------------------------------------- pdcT tree file format ---

std::vector<char> read_raw(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f),
          std::istreambuf_iterator<char>()};
}

void write_raw(const std::filesystem::path& path,
               std::span<const char> bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

DecisionTree trained_tree() {
  clouds::CloudsBuilder builder{clouds::CloudsConfig{}};
  return builder.build(agrawal_records(2000, 13));
}

TEST(CodecFuzz, TreeFileRoundTripsByteIdentically) {
  io::ScratchArena arena("codec_fuzz_tree", 1);
  const auto tree = trained_tree();
  const auto path = arena.rank_dir(0) / "model.pdct";
  clouds::save_tree(tree, path);
  const auto bytes = read_raw(path);
  const auto back = clouds::load_tree(path);
  const auto repath = arena.rank_dir(0) / "model2.pdct";
  clouds::save_tree(back, repath);
  EXPECT_EQ(read_raw(repath), bytes);
  const auto probe = agrawal_records(200, 99);
  for (const auto& r : probe) EXPECT_EQ(back.classify(r), tree.classify(r));
}

TEST(CodecFuzz, TreeFileSurvivesMutations) {
  io::ScratchArena arena("codec_fuzz_tree_mut", 1);
  const auto tree = trained_tree();
  const auto path = arena.rank_dir(0) / "model.pdct";
  clouds::save_tree(tree, path);
  const auto bytes = read_raw(path);
  const auto probe = agrawal_records(32, 99);
  const auto mutated = arena.rank_dir(0) / "mutated.pdct";
  fuzz_bytes(bytes, 0x51eef002, [&](const std::vector<char>& b) {
    write_raw(mutated, b);
    const auto t = clouds::load_tree(mutated);
    // validate_arena accepted the arena: descent must be in-bounds and
    // terminating for any record.
    for (const auto& r : probe) (void)t.classify(r);
  });
}

void write_tree_file(const std::filesystem::path& path,
                     const std::vector<TreeNode>& nodes) {
  mp::WireWriter out;
  out.put_raw(clouds::detail::kTreeMagic);
  out.put_raw(clouds::detail::kTreeVersion);
  out.put_array(nodes);
  obs::write_bytes_file(path.string(), out.take());
}

TEST(CodecFuzz, TreeFileSurvivesChildLinkRewrites) {
  io::ScratchArena arena("codec_fuzz_tree_links", 1);
  const auto path = arena.rank_dir(0) / "mutant.pdct";
  fuzz_child_links(trained_tree().serialize(), 0x51eef008,
                   [&](const std::vector<TreeNode>& nodes) {
                     write_tree_file(path, nodes);
                     expect_linear(clouds::load_tree(path));
                   });
}

// ------------------------------------------ pdcF compiled blob ---

TEST(CodecFuzz, CompiledTreeRoundTripsByteIdentically) {
  const auto tree = trained_tree();
  const auto compiled = serve::CompiledTree::compile(tree);
  const auto bytes = compiled.to_bytes();
  const auto back = serve::CompiledTree::from_bytes(bytes);
  EXPECT_EQ(back.to_bytes(), bytes);
  const auto probe = agrawal_records(200, 99);
  for (const auto& r : probe) {
    EXPECT_EQ(back.predict(r), tree.classify(r));
  }
}

TEST(CodecFuzz, CompiledTreeSurvivesMutations) {
  const auto bytes = serve::CompiledTree::compile(trained_tree()).to_bytes();
  const auto probe = agrawal_records(32, 99);
  fuzz_bytes(bytes, 0x51eef003, [&](const std::vector<std::byte>& b) {
    const auto t = serve::CompiledTree::from_bytes(b);
    for (const auto& r : probe) (void)t.predict(r);
  });
}

// Structural mutants of the pdcF blob: rewrite one internal FlatNode's
// first-child link to another node's children, a leaf, itself, an earlier
// node or past the end.  A mutant is rejected, or it keeps the node count
// and both descents agree on it; any mutant whose nodes share a child must
// be rejected.
TEST(CodecFuzz, CompiledTreeSurvivesChildLinkRewrites) {
  const auto seed = serve::CompiledTree::compile(trained_tree());
  const auto bytes = seed.to_bytes();
  const auto nodes = seed.nodes();
  const std::size_t n = nodes.size();
  const std::size_t header = bytes.size() - sizeof(serve::FlatNode) * n;
  std::vector<std::uint32_t> internal;
  std::vector<std::uint32_t> leaves;
  for (std::uint32_t i = 0; i < n; ++i) {
    (nodes[i].is_leaf() ? leaves : internal).push_back(i);
  }
  ASSERT_GE(internal.size(), 2u);
  const auto probe = agrawal_records(64, 99);
  const auto block = serve::RecordBlock::from_records(probe);
  std::mt19937_64 rng(0x51eef00b);
  const auto pick = [&rng](const std::vector<std::uint32_t>& v) {
    return v[rng() % v.size()];
  };
  int shared = 0;
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::uint32_t node = pick(internal);
    std::uint32_t target = node;  // i % 5 == 2: itself
    switch (i % 5) {
      case 0: target = nodes[pick(internal)].first_child(); break;
      case 1: target = pick(leaves); break;
      case 3:
        if (node > 0) target = static_cast<std::uint32_t>(rng() % node);
        break;
      case 4: target = static_cast<std::uint32_t>(n - 1 + rng() % 4); break;
      default: break;
    }
    // Parents per node index after the rewrite (children are fc, fc + 1).
    std::vector<int> parents(n + 4, 0);
    for (const std::uint32_t j : internal) {
      const std::uint32_t fc = j == node ? target : nodes[j].first_child();
      ++parents[fc];
      ++parents[fc + 1];
    }
    const bool shares =
        std::any_of(parents.begin(), parents.begin() + static_cast<long>(n),
                    [](int c) { return c > 1; });
    shared += shares ? 1 : 0;

    auto mutant = bytes;
    const std::size_t at = header + sizeof(serve::FlatNode) * node;
    for (std::size_t b = 0; b < 4; ++b) {  // little-endian meta, leaf bit 0
      mutant[at + b] = static_cast<std::byte>((target << 1) >> (8 * b));
    }
    try {
      const auto t = serve::CompiledTree::from_bytes(mutant);
      EXPECT_FALSE(shares) << "accepted a blob whose nodes share a child";
      EXPECT_EQ(t.node_count(), n);
      std::vector<std::int8_t> labels(block.size());
      t.predict_block(block, labels);
      for (std::size_t r = 0; r < probe.size(); ++r) {
        EXPECT_EQ(labels[r], t.predict(probe[r]));
      }
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  EXPECT_GT(shared, 0);
  EXPECT_GE(rejected, shared);
}

// --------------------------------------- voted-stats varint stream ---

struct VotedSeed {
  NodeStats stats;
  std::vector<int> candidates;
  std::size_t expected_len = 0;
  std::vector<std::byte> blob;
};

VotedSeed seeded_voted() {
  VotedSeed seed;
  const auto records = agrawal_records(2000, 11);
  std::vector<Record> sample;
  for (std::size_t i = 0; i < records.size(); i += 10) {
    sample.push_back(records[i]);
  }
  seed.stats = NodeStats::with_boundaries(sample, 16);
  for (const auto& r : records) seed.stats.add(r);
  seed.candidates = {0, 2, data::kNumNumeric + 1};
  seed.expected_len = static_cast<std::size_t>(data::kNumClasses);
  for (const int attr : seed.candidates) {
    seed.expected_len += pclouds::voted_attr_len(seed.stats, attr);
  }
  seed.blob = pclouds::encode_voted_stats(seed.stats, seed.candidates,
                                          /*hist_bits=*/0);
  return seed;
}

TEST(CodecFuzz, VotedStatsLosslessAtZeroHistBits) {
  const auto seed = seeded_voted();
  const auto flat = pclouds::decode_voted_stats(seed.blob,
                                                seed.expected_len);
  ASSERT_EQ(flat.size(), seed.expected_len);
  // Rebuild the expected flat stream straight from the stats.
  std::vector<std::int64_t> want;
  for (const int attr : seed.candidates) {
    if (attr < data::kNumNumeric) {
      const auto& h = seed.stats.hists[static_cast<std::size_t>(attr)];
      for (const auto& f : h.freq) {
        for (int k = 0; k < data::kNumClasses; ++k) {
          want.push_back(f[static_cast<std::size_t>(k)]);
        }
      }
    } else {
      const auto& m = seed.stats.cats[static_cast<std::size_t>(
          attr - data::kNumNumeric)];
      for (const auto v : m.flatten()) want.push_back(v);
    }
  }
  for (int k = 0; k < data::kNumClasses; ++k) {
    want.push_back(seed.stats.counts[static_cast<std::size_t>(k)]);
  }
  EXPECT_EQ(flat, want);
}

TEST(CodecFuzz, VotedStatsSurvivesMutations) {
  const auto seed = seeded_voted();
  fuzz_bytes(seed.blob, 0x51eef004, [&](const std::vector<std::byte>& b) {
    const auto flat = pclouds::decode_voted_stats(b, seed.expected_len);
    // An accepted stream must carry exactly the advertised count.
    ASSERT_EQ(flat.size(), seed.expected_len);
  });
}

// A forged stream or blob must not drive the count merges past int64:
// each case overflows (undefined behaviour) without the checked sums.
TEST(CodecFuzz, VotedStatsRejectsARunningCountPastInt64) {
  mp::WireWriter out;
  out.put_varint(pclouds::zigzag(std::numeric_limits<std::int64_t>::max()));
  out.put_varint(pclouds::zigzag(1));
  const auto blob = out.take();
  EXPECT_THROW((void)pclouds::decode_voted_stats(blob, 2), WireError);
}

TEST(CodecFuzz, StatsMergeRejectsASumPastInt64) {
  const std::vector<std::int64_t> big = {
      std::numeric_limits<std::int64_t>::max()};
  const std::vector<std::int64_t> one = {1};
  EXPECT_THROW((void)pclouds::combine_stats_blobs(
                   mp::to_bytes(std::span<const std::int64_t>(big)),
                   mp::to_bytes(std::span<const std::int64_t>(one))),
               WireError);
}

TEST(CodecFuzz, VotingRejectsHistBitsOutsideZeroToSixtyTwo) {
  // quantize_count shifts a signed 64-bit count by hist_bits.
  const auto seed = seeded_voted();
  mp::Runtime rt(1);
  rt.run([&](mp::Comm& comm) {
    for (const int bits : {-1, 63}) {
      EXPECT_THROW((void)pclouds::derive_voting(comm, seed.stats, 2, bits,
                                                /*want_alive=*/false, {}),
                   std::invalid_argument)
          << "hist_bits=" << bits;
    }
  });
}

// -------------------------------- CloudsProblem checkpoint state ---

pclouds::PcloudsConfig fuzz_cfg() {
  pclouds::PcloudsConfig cfg;
  cfg.clouds.method = clouds::SplitMethod::kSSE;
  cfg.clouds.q_root = 64;
  cfg.memory_bytes = 1 << 20;
  return cfg;
}

io::Scan<Record> memory_scan(const std::vector<Record>& records) {
  return [&records](const auto& visit) {
    for (const auto& r : records) visit(r);
  };
}

dc::Task root_task(const std::vector<Record>& records) {
  dc::Task task;
  task.global_n = records.size();
  return task;
}

pclouds::CloudsProblem seeded_problem(const std::vector<Record>& records,
                                      const std::vector<Record>& sample) {
  pclouds::CloudsProblem problem(fuzz_cfg(), records.size(), sample,
                                 clouds::CostHooks{}, nullptr);
  // Enrich the state beyond the bare root: the root's filled statistics
  // put a live task context (sample, histograms, count matrices) on the
  // wire, and a solved small node a subtree arena and a task id.
  (void)problem.local_stats(memory_scan(records), root_task(records));
  dc::Task task;
  task.id = 1;
  task.depth = 2;
  task.global_n = records.size();
  problem.solve_sequential(task, records);
  return problem;
}

TEST(CodecFuzz, ProblemStateRoundTripsByteIdentically) {
  const auto records = agrawal_records(500, 17);
  std::vector<Record> sample(records.begin(), records.begin() + 50);
  auto problem = seeded_problem(records, sample);
  const auto blob = problem.export_state();
  pclouds::CloudsProblem fresh(fuzz_cfg(), records.size(), sample,
                               clouds::CostHooks{}, nullptr);
  fresh.restore_state(blob);
  EXPECT_EQ(fresh.export_state(), blob);
}

TEST(CodecFuzz, ProblemStateSurvivesMutations) {
  const auto records = agrawal_records(500, 17);
  std::vector<Record> sample(records.begin(), records.begin() + 50);
  auto problem = seeded_problem(records, sample);
  const auto blob = problem.export_state();
  fuzz_bytes(blob, 0x51eef005, [&](const std::vector<std::byte>& b) {
    pclouds::CloudsProblem fresh(fuzz_cfg(), records.size(), sample,
                                 clouds::CostHooks{}, nullptr);
    fresh.restore_state(b);
    // A restore that validated must re-export, and fill and encode the
    // root's statistics, without tripping ASan.
    (void)fresh.export_state();
    (void)fresh.local_stats(memory_scan(records), root_task(records));
  });
}

/// Offsets into a state blob whose only task context is the root's: its
/// `filled` byte and its first histogram's interval-count header.
struct RootCtxAt {
  std::size_t filled = 0;
  std::size_t first_freq = 0;
};

RootCtxAt root_ctx_at(const std::vector<std::byte>& state) {
  const auto u64_at = [&](std::size_t pos) {
    std::uint64_t v = 0;
    std::memcpy(&v, state.data() + pos, sizeof(v));
    return static_cast<std::size_t>(v);
  };
  // export_state() order: three i32 knobs, the tree arena, the node map,
  // then per context its id, filled and prefilled bytes, sample and stats.
  std::size_t at = 3 * sizeof(std::int32_t);
  at += sizeof(std::uint64_t) + u64_at(at) * sizeof(TreeNode);
  at += sizeof(std::uint64_t) +
        u64_at(at) * (sizeof(std::int64_t) + sizeof(std::int32_t));
  EXPECT_EQ(u64_at(at), 1u) << "expected the root context alone";
  at += sizeof(std::uint64_t) + sizeof(std::int64_t);
  RootCtxAt out;
  out.filled = at;
  at += 2;
  at += sizeof(std::uint64_t) + u64_at(at) * sizeof(Record);
  at += sizeof(data::ClassCounts) + sizeof(std::uint64_t);
  out.first_freq = at + sizeof(std::uint64_t) + u64_at(at) * sizeof(float);
  return out;
}

TEST(CodecFuzz, ProblemStateRejectsHistogramCutShort) {
  const auto records = agrawal_records(500, 17);
  std::vector<Record> sample(records.begin(), records.begin() + 50);
  auto blob = seeded_problem(records, sample).export_state();
  // Cut the first histogram's class counts to one interval and mark the
  // context unfilled, so a resumed local_stats would bin records into it.
  const auto at = root_ctx_at(blob);
  ASSERT_EQ(blob[at.filled], std::byte{1});
  blob[at.filled] = std::byte{0};
  {
    // Unfilled but intact, the context restores: only the cut rejects it.
    pclouds::CloudsProblem control(fuzz_cfg(), records.size(), sample,
                                   clouds::CostHooks{}, nullptr);
    ASSERT_NO_THROW(control.restore_state(blob));
  }
  std::uint64_t intervals = 0;
  std::memcpy(&intervals, blob.data() + at.first_freq, sizeof(intervals));
  ASSERT_GT(intervals, 1u);
  const std::uint64_t one = 1;
  std::memcpy(blob.data() + at.first_freq, &one, sizeof(one));
  const auto kept = blob.begin() +
                    static_cast<std::ptrdiff_t>(at.first_freq + sizeof(one) +
                                                sizeof(data::ClassCounts));
  blob.erase(kept, kept + static_cast<std::ptrdiff_t>(
                              (intervals - 1) * sizeof(data::ClassCounts)));
  pclouds::CloudsProblem fresh(fuzz_cfg(), records.size(), sample,
                               clouds::CostHooks{}, nullptr);
  EXPECT_THROW(fresh.restore_state(blob), WireError);
}

/// CloudsProblem::export_state() opens with three i32 combiner knobs and
/// then the tree arena (u64 node count, raw nodes); returns `state` with
/// that arena replaced by `nodes`.
std::vector<std::byte> with_tree_arena(const std::vector<std::byte>& state,
                                       const std::vector<TreeNode>& nodes) {
  constexpr std::size_t kAt = 3 * sizeof(std::int32_t);
  std::uint64_t old_count = 0;
  std::memcpy(&old_count, state.data() + kAt, sizeof(old_count));
  const std::size_t old_end =
      kAt + sizeof(old_count) + old_count * sizeof(TreeNode);
  const std::uint64_t count = nodes.size();
  std::vector<std::byte> out(kAt + sizeof(count) + count * sizeof(TreeNode));
  std::memcpy(out.data(), state.data(), kAt);
  std::memcpy(out.data() + kAt, &count, sizeof(count));
  std::memcpy(out.data() + kAt + sizeof(count), nodes.data(),
              count * sizeof(TreeNode));
  out.insert(out.end(), state.begin() + static_cast<std::ptrdiff_t>(old_end),
             state.end());
  return out;
}

TEST(CodecFuzz, ProblemStateSurvivesChildLinkRewrites) {
  const auto records = agrawal_records(500, 17);
  std::vector<Record> sample(records.begin(), records.begin() + 50);
  const auto seeded = seeded_problem(records, sample);
  const auto subtree = seeded.small_subtrees().at(0).second;
  const auto tree = trained_tree().serialize();
  // A trained tree in the tree slot gives the arena links to rewrite.
  const auto state = with_tree_arena(seeded.export_state(), tree);
  const auto check = [&](const std::vector<std::byte>& blob) {
    pclouds::CloudsProblem fresh(fuzz_cfg(), records.size(), sample,
                                 clouds::CostHooks{}, nullptr);
    fresh.restore_state(blob);
    expect_linear(fresh.tree());
    // Small-node subtrees are validated where they join the tree.
    for (const auto& [id, nodes] : fresh.small_subtrees()) {
      DecisionTree host;
      host.graft(host.root(), nodes);
      expect_linear(host);
    }
  };
  check(state);
  fuzz_child_links(tree, 0x51eef009, [&](const std::vector<TreeNode>& n) {
    check(with_tree_arena(state, n));
  });
  // The subtree arena is the last field before the trailing diagnostics.
  const std::size_t at = state.size() - sizeof(pclouds::CloudsProblem::Diag) -
                         subtree.size() * sizeof(TreeNode);
  fuzz_child_links(subtree, 0x51eef00a, [&](const std::vector<TreeNode>& n) {
    auto blob = state;
    std::memcpy(blob.data() + at, n.data(), n.size() * sizeof(TreeNode));
    check(blob);
  });
}

/// 24 nodes (1,152 bytes) whose every internal node sends both links to
/// the next node: accepted, they would unfold into 2^23 leaves.
std::vector<TreeNode> shared_child_chain() {
  std::vector<TreeNode> nodes(24);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    nodes[i].leaf = false;
    nodes[i].left = nodes[i].right = static_cast<std::int32_t>(i + 1);
    nodes[i].depth = static_cast<std::int32_t>(i);
  }
  nodes.back().depth = static_cast<std::int32_t>(nodes.size() - 1);
  return nodes;
}

TEST(CodecFuzz, SharedChildArenaIsRejectedOnEveryPath) {
  const auto chain = shared_child_chain();
  EXPECT_THROW((void)DecisionTree::deserialize(chain), WireError);

  io::ScratchArena arena("codec_fuzz_shared_child", 1);
  const auto path = arena.rank_dir(0) / "shared.pdct";
  write_tree_file(path, chain);
  EXPECT_THROW((void)clouds::load_tree(path), WireError);

  const auto records = agrawal_records(500, 17);
  std::vector<Record> sample(records.begin(), records.begin() + 50);
  const auto state =
      with_tree_arena(seeded_problem(records, sample).export_state(), chain);
  pclouds::CloudsProblem fresh(fuzz_cfg(), records.size(), sample,
                               clouds::CostHooks{}, nullptr);
  EXPECT_THROW(fresh.restore_state(state), WireError);

  DecisionTree host;
  EXPECT_THROW(host.graft(host.root(), chain), WireError);
  EXPECT_EQ(host.node_count(), 1u);
  EXPECT_TRUE(host.node(host.root()).leaf);
}

// ------------------------------------- checkpoint manifest format ---

struct CkptRig {
  io::ScratchArena arena{"codec_fuzz_ckpt", 1};
  mp::CostModel cost{mp::Machine{}};
  mp::Clock clock{};
};

std::vector<fault::CheckpointBlob> two_blobs() {
  std::vector<fault::CheckpointBlob> blobs(2);
  blobs[0].name = "alpha";
  blobs[1].name = "beta";
  std::mt19937_64 rng(23);
  for (auto& blob : blobs) {
    blob.bytes.resize(256);
    for (auto& b : blob.bytes) {
      b = static_cast<std::byte>(rng() & 0xff);
    }
  }
  return blobs;
}

TEST(CodecFuzz, ManifestSurvivesMutations) {
  CkptRig rig;
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock);
  fault::CheckpointStore store(disk);
  const auto blobs = two_blobs();
  store.write(1, blobs);
  ASSERT_EQ(store.valid_versions(), std::vector<std::uint64_t>{1});

  const auto manifest = rig.arena.rank_dir(0) / "pdc.ckpt.v1.manifest";
  const auto original = read_raw(manifest);
  ASSERT_FALSE(original.empty());
  std::mt19937_64 rng(0x51eef006);
  std::uniform_int_distribution<std::size_t> pos_dist(0,
                                                      original.size() - 1);
  std::uniform_int_distribution<int> xor_dist(1, 255);
  for (int i = 0; i < kMutations; ++i) {
    auto bytes = original;
    const std::size_t pos = pos_dist(rng);
    bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^
                                   static_cast<unsigned char>(
                                       xor_dist(rng)));
    write_raw(manifest, bytes);
    io::LocalDisk probe_disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock);
    fault::CheckpointStore probe(probe_disk);
    const auto valid = probe.valid_versions();
    // The manifest is self-checksummed: a corrupt copy either fails
    // validation outright or — if it somehow still validates — must
    // yield the original blobs intact.
    if (!valid.empty()) {
      ASSERT_EQ(valid, std::vector<std::uint64_t>{1});
      for (const auto& blob : blobs) {
        EXPECT_EQ(probe.read_blob(1, blob.name), blob.bytes);
      }
    }
  }
  write_raw(manifest, original);
  ASSERT_EQ(store.valid_versions(), std::vector<std::uint64_t>{1});
}

TEST(CodecFuzz, CorruptBlobInvalidatesTheSnapshot) {
  CkptRig rig;
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock);
  fault::CheckpointStore store(disk);
  store.write(1, two_blobs());
  const auto blob_path = rig.arena.rank_dir(0) / "pdc.ckpt.v1.alpha";
  const auto original = read_raw(blob_path);
  ASSERT_FALSE(original.empty());
  std::mt19937_64 rng(0x51eef007);
  std::uniform_int_distribution<std::size_t> pos_dist(0,
                                                      original.size() - 1);
  std::uniform_int_distribution<int> xor_dist(1, 255);
  for (int i = 0; i < 40; ++i) {
    auto bytes = original;
    const std::size_t pos = pos_dist(rng);
    bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^
                                   static_cast<unsigned char>(
                                       xor_dist(rng)));
    write_raw(blob_path, bytes);
    io::LocalDisk probe_disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock);
    fault::CheckpointStore probe(probe_disk);
    EXPECT_TRUE(probe.valid_versions().empty())
        << "flipped byte " << pos << " went undetected";
  }
  write_raw(blob_path, original);
  EXPECT_EQ(store.valid_versions(), std::vector<std::uint64_t>{1});
}

// ------------------------------------------- DcDriver snapshot state ---

/// One pCLOUDS training run on a single rank over `arena`'s disk.  A single
/// rank keeps every collective in step however a snapshot is mutated.
std::vector<TreeNode> train_single_rank(io::ScratchArena& arena,
                                        std::uint64_t checkpoint_every,
                                        bool resume) {
  constexpr std::uint64_t kRecords = 1500;
  pclouds::PcloudsConfig cfg;
  cfg.clouds.q_root = 200;
  cfg.memory_bytes = 32 << 10;
  cfg.checkpoint_every = checkpoint_every;
  cfg.resume = resume;
  std::vector<TreeNode> tree;
  mp::Runtime(1).run([&](mp::Comm& comm) {
    io::LocalDisk disk(arena.rank_dir(0), &comm.cost(), &comm.clock());
    const AgrawalGenerator gen({.function = 2, .seed = 17});
    const data::DatasetPartition part(kRecords, 1);
    data::materialize_local_slice(gen, part, 0, disk, "train.dat", 2048);
    const auto sample =
        data::draw_local_sample(gen, part, data::Sampler(0.05, 4), 0);
    tree = pclouds::pclouds_train(comm, cfg, disk, "train.dat", sample)
               .serialize();
  });
  return tree;
}

// The driver's state blob (counters and pending tasks), mutated and
// written back through CheckpointStore so the checksums pass: every resume
// ends in a tree or a typed exception.
TEST(CodecFuzz, DriverStateSurvivesMutations) {
  io::ScratchArena arena("codec_fuzz_driver", 1);
  const auto reference = train_single_rank(arena, 1, false);
  ASSERT_FALSE(reference.empty());

  mp::CostModel cost{mp::Machine{}};
  mp::Clock clock{};
  io::LocalDisk disk(arena.rank_dir(0), &cost, &clock);
  fault::CheckpointStore store(disk);
  const auto version = store.valid_versions().back();
  const auto names = store.blob_names(version);
  ASSERT_TRUE(names.has_value());
  std::vector<fault::CheckpointBlob> blobs;
  for (const auto& name : *names) {
    blobs.push_back({name, store.read_blob(version, name)});
  }
  auto& state = blobs.back();
  ASSERT_EQ(state.name, "state");
  const auto seed = state.bytes;
  const auto resume_with = [&](const std::vector<std::byte>& bytes) {
    state.bytes = bytes;
    store.write(version, blobs);
    return train_single_rank(arena, 0, true);
  };

  // Written back unchanged, the snapshot resumes to the uninterrupted tree.
  EXPECT_EQ(digest(resume_with(seed)), digest(reference));
  fuzz_bytes(seed, 0x51eef00c, [&](const std::vector<std::byte>& b) {
    (void)resume_with(b);
  });
}

// ------------------------------------------------- pinned format bytes ---

// The bytes of every format for a seeded input, hashed: a change that is
// not meant to alter a format must keep its constant.
TEST(CodecFuzz, EveryFormatKeepsItsBytes) {
  io::ScratchArena arena("codec_fuzz_digests", 1);
  const auto tree_path = arena.rank_dir(0) / "model.pdct";
  clouds::save_tree(trained_tree(), tree_path);
  EXPECT_EQ(digest(read_raw(tree_path)), 0xfac2f67125c13b07u) << "pdcT file";
  EXPECT_EQ(digest(serve::CompiledTree::compile(trained_tree()).to_bytes()),
            0x0b1a9a287f6ea349u)
      << "pdcF blob";
  EXPECT_EQ(digest(seeded_sketch().serialize()), 0x8a1798612a553825u)
      << "sketch blob";
  EXPECT_EQ(digest(seeded_voted().blob), 0x2b89aadb6ff6b683u) << "voted stream";

  const auto records = agrawal_records(500, 17);
  const std::vector<Record> sample(records.begin(), records.begin() + 50);
  EXPECT_EQ(digest(seeded_problem(records, sample).export_state()),
            0xf3d1c7997668baf4u)
      << "problem state";
  auto cfg = fuzz_cfg();
  cfg.boundaries = pclouds::BoundarySource::kSketch;
  pclouds::CloudsProblem sketching(cfg, records.size(), {},
                                   clouds::CostHooks{}, nullptr);
  EXPECT_EQ(digest(sketching.local_stats(memory_scan(records),
                                         root_task(records))),
            0xa1937d5713f357beu)
      << "problem sketch blob";
  EXPECT_EQ(digest(sketching.export_state()), 0xf3df7303c7bb0c91u)
      << "problem state with sketches";

  CkptRig rig;
  io::LocalDisk disk(rig.arena.rank_dir(0), &rig.cost, &rig.clock);
  fault::CheckpointStore(disk).write(1, two_blobs());
  EXPECT_EQ(digest(read_raw(rig.arena.rank_dir(0) / "pdc.ckpt.v1.manifest")),
            0xdab526e183c39ef9u)
      << "checkpoint manifest";
}

}  // namespace
}  // namespace pdc
