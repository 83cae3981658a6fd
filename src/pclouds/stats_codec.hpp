#pragma once

// Wire codec for NodeStats under the replication method.
//
// The interval boundaries of a task are derived from the replicated sample,
// so they are identical on every rank; only the class-frequency vectors
// (per numeric interval, per categorical value, plus the node counts) need
// to travel.  The blob is therefore a flat int64 array of identical length
// on every rank, and the global statistics are the element-wise sum — which
// is exactly what the paper's replication method computes (local vectors
// combined into global vectors on every processor).

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "clouds/splitters.hpp"
#include "common/wire.hpp"
#include "mp/serialize.hpp"

namespace pdc::pclouds {

inline std::vector<std::byte> encode_stats(const clouds::NodeStats& stats) {
  std::vector<std::int64_t> flat;
  for (const auto& h : stats.hists) {
    for (const auto& f : h.freq) {
      for (int k = 0; k < data::kNumClasses; ++k) {
        flat.push_back(f[static_cast<std::size_t>(k)]);
      }
    }
  }
  for (const auto& m : stats.cats) {
    const auto cat_flat = m.flatten();
    flat.insert(flat.end(), cat_flat.begin(), cat_flat.end());
  }
  for (int k = 0; k < data::kNumClasses; ++k) {
    flat.push_back(stats.counts[static_cast<std::size_t>(k)]);
  }
  return mp::to_bytes(std::span<const std::int64_t>(flat));
}

/// Fills the frequency fields of `stats` (whose boundary layout must match
/// the encoder's) from a blob.
inline void decode_stats(std::span<const std::byte> blob,
                         clouds::NodeStats& stats) {
  const auto flat = mp::from_bytes<std::int64_t>(blob);
  // The layout is fixed by `stats`' boundary structure, so the element
  // count is known exactly; a shorter (or longer) blob is corrupt and
  // must not drive the fills below off the end of `flat`.
  std::size_t need = static_cast<std::size_t>(data::kNumClasses);
  for (const auto& h : stats.hists) {
    need += h.freq.size() * static_cast<std::size_t>(data::kNumClasses);
  }
  for (const auto& m : stats.cats) {
    need += m.counts.size() * static_cast<std::size_t>(data::kNumClasses);
  }
  if (flat.size() != need) {
    throw WireError("pclouds: stats blob length mismatch");
  }
  std::size_t i = 0;
  for (auto& h : stats.hists) {
    for (auto& f : h.freq) {
      for (int k = 0; k < data::kNumClasses; ++k) {
        f[static_cast<std::size_t>(k)] = flat[i++];
      }
    }
  }
  for (auto& m : stats.cats) {
    const std::size_t len = m.counts.size() * data::kNumClasses;
    m.unflatten(std::span<const std::int64_t>(flat.data() + i, len));
    i += len;
  }
  for (int k = 0; k < data::kNumClasses; ++k) {
    stats.counts[static_cast<std::size_t>(k)] = flat[i++];
  }
}

/// a + b where either came from another rank: a count that leaves the
/// int64 range is a corrupt or forged blob, never a real count.
inline std::int64_t checked_sum(std::int64_t a, std::int64_t b) {
  std::int64_t sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    throw WireError("pclouds: stats count leaves the int64 range");
  }
  return sum;
}

/// acc += part, element by element, with checked_sum: the merge of count
/// vectors gathered from other ranks.
inline void add_counts(std::span<std::int64_t> acc,
                       std::span<const std::int64_t> part) {
  if (acc.size() != part.size()) {
    throw WireError("pclouds: stats count vectors differ in length");
  }
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = checked_sum(acc[i], part[i]);
  }
}

/// Element-wise sum of two encoded blobs (empty acts as identity).
inline std::vector<std::byte> combine_stats_blobs(
    std::vector<std::byte> a, const std::vector<std::byte>& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  auto fa = mp::from_bytes<std::int64_t>(a);
  add_counts(fa, mp::from_bytes<std::int64_t>(b));
  return mp::to_bytes(std::span<const std::int64_t>(fa));
}

// ---------------------------------------------- voting wire codec ---
//
// The voting combiner ships only the voted candidate attributes' counts,
// and compresses them: each count is optionally rounded to `hist_bits`
// significant bits, then the stream is delta-encoded against its
// predecessor and written as zigzag varints.  Equi-depth intervals make
// neighbouring counts similar, so deltas are small and the varints short.
// Ranks sum the *decoded* streams, so the merge itself stays exact;
// hist_bits > 0 biases each rank's counts before the merge (a quantified
// drift lever), hist_bits == 0 is lossless.

/// Round `v >= 0` to `bits` significant bits (0 = exact).  Values below
/// 2^bits pass through unchanged; rounding is to-nearest, ties up, so the
/// mapping is deterministic and monotone.
inline std::int64_t quantize_count(std::int64_t v, int bits) {
  if (bits <= 0 || v < (std::int64_t{1} << bits)) return v;
  int width = 0;
  for (std::int64_t t = v; t > 0; t >>= 1) ++width;
  const int shift = width - bits;
  const std::int64_t half = std::int64_t{1} << (shift - 1);
  return ((v + half) >> shift) << shift;
}

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Flat count layout of one attribute in the voted exchange: numeric
/// attributes contribute interval-major class counts, categorical
/// attributes (unified ids >= kNumNumeric) their flattened count matrix.
inline std::size_t voted_attr_len(const clouds::NodeStats& stats, int attr) {
  if (attr < data::kNumNumeric) {
    return stats.hists[static_cast<std::size_t>(attr)].freq.size() *
           static_cast<std::size_t>(data::kNumClasses);
  }
  return stats.cats[static_cast<std::size_t>(attr - data::kNumNumeric)]
             .counts.size() *
         static_cast<std::size_t>(data::kNumClasses);
}

/// Encode this rank's counts for the voted candidates (plus the node class
/// counts, appended last so the merge needs no second collective).
inline std::vector<std::byte> encode_voted_stats(
    const clouds::NodeStats& stats, std::span<const int> candidates,
    int hist_bits) {
  mp::WireWriter out;
  std::int64_t prev = 0;
  const auto put = [&](std::int64_t raw) {
    const std::int64_t q = quantize_count(raw, hist_bits);
    out.put_varint(zigzag(q - prev));
    prev = q;
  };
  for (const int attr : candidates) {
    if (attr < data::kNumNumeric) {
      const auto& h = stats.hists[static_cast<std::size_t>(attr)];
      for (const auto& f : h.freq) {
        for (int k = 0; k < data::kNumClasses; ++k) {
          put(f[static_cast<std::size_t>(k)]);
        }
      }
    } else {
      const auto& m =
          stats.cats[static_cast<std::size_t>(attr - data::kNumNumeric)];
      for (const auto v : m.flatten()) put(v);
    }
  }
  // Node class counts are never quantized: sizes drive the stop rule.
  for (int k = 0; k < data::kNumClasses; ++k) {
    const std::int64_t v = stats.counts[static_cast<std::size_t>(k)];
    out.put_varint(zigzag(v - prev));
    prev = v;
  }
  return out.take();
}

/// Decode one rank's voted blob back to the flat count stream (candidate
/// attributes in `candidates` order, then kNumClasses node counts).
inline std::vector<std::int64_t> decode_voted_stats(
    std::span<const std::byte> blob, std::size_t expected_len) {
  // pdc: nonwire(bulk/stream decoder: yields the flat delta-decoded count
  //              stream; the per-field structure lives in the caller's
  //              voted_attr_len layout, not in this codec)
  mp::WireReader in(blob, "pclouds voted stats");
  std::vector<std::int64_t> flat;
  flat.reserve(expected_len);
  std::int64_t prev = 0;
  while (flat.size() < expected_len) {
    prev = checked_sum(prev, unzigzag(in.get_varint()));
    flat.push_back(prev);
  }
  in.finish();
  return flat;
}

}  // namespace pdc::pclouds
