#pragma once

// Interval machinery for the SS/SSE methods.
//
// CLOUDS divides the range of each numeric attribute into q intervals that
// contain approximately the same number of points, using a pre-drawn random
// sample set S.  Gini is then evaluated only at the q-1 interior interval
// boundaries (one pass over the data fills the per-interval class frequency
// vectors), instead of at every distinct attribute value.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "clouds/gini.hpp"
#include "data/record.hpp"

namespace pdc::clouds {

/// The interval of each of L values in its own ascending array at once:
/// lane a gets the first j with v[a] <= bounds[a][j], or bounds[a].size()
/// when there is none.  That is std::lower_bound's index for every value
/// but NaN, which is <= no bound and so lands in the last interval, right
/// of every boundary as Split::goes_left sends it; -0.0 sits with a 0.0
/// bound.  The lanes descend level by level side by side, each step a
/// compare feeding a select (cmov) rather than a data-dependent jump, so
/// the L load chains overlap instead of serialising behind mispredicted
/// branches.  A lane that has narrowed to one candidate re-reads it until
/// the longest lane is done; an empty lane reads +inf and its answer is
/// clamped to 0.  Whatever the contents, every element read and index
/// returned is in range.
template <std::size_t L>
std::array<std::size_t, L> lower_bound_lanes(
    const std::array<std::span<const float>, L>& bounds,
    const std::array<float, L>& v) {
  static constexpr float kNoBound = std::numeric_limits<float>::infinity();
  std::array<const float*, L> first{};
  std::array<std::size_t, L> n{};
  std::size_t widest = 1;
  for (std::size_t a = 0; a < L; ++a) {
    const bool empty = bounds[a].empty();
    first[a] = empty ? &kNoBound : bounds[a].data();
    n[a] = empty ? 1 : bounds[a].size();
    widest = std::max(widest, n[a]);
  }
  // Per lane, the answer lies in [at, at + n] and at[0 .. n-1] is readable.
  std::array<const float*, L> at = first;
  for (auto level = std::bit_width(widest - 1); level > 0; --level) {
    for (std::size_t a = 0; a < L; ++a) {
      const std::size_t half = n[a] / 2;
      at[a] = v[a] <= at[a][half] ? at[a] : at[a] + half;
      n[a] -= half;
    }
  }
  std::array<std::size_t, L> out{};
  for (std::size_t a = 0; a < L; ++a) {
    out[a] = std::min(static_cast<std::size_t>(at[a] - first[a]) +
                          static_cast<std::size_t>(!(v[a] <= *at[a])),
                      bounds[a].size());
  }
  return out;
}

/// The sort key of a float: its IEEE-754 totalOrder rank (-inf < ... <
/// -0.0 < +0.0 < ... < +inf), except that every NaN ranks after +inf,
/// positive NaNs before negative ones.  Distinct bit patterns get distinct
/// keys, so sorting on the key yields the same bits from any input order.
constexpr std::uint32_t value_key(float v) {
  const auto bits = std::bit_cast<std::uint32_t>(v);
  const std::uint32_t total_order =
      (bits >> 31) != 0 ? ~bits : bits | 0x8000'0000u;
  // totalOrder ranks the 2^23 - 1 negative NaNs first; rotating every key
  // down by their count moves them past the positive NaNs.
  return total_order - 0x007F'FFFFu;
}

/// Stable sort of `items` by value_key(value(item)): an LSD radix sort in
/// four 8-bit passes that skips a pass whose digit every key shares, and an
/// insertion sort below 48 items, where the radix sort's fixed cost (four
/// 256-entry 32-bit count tables and a scratch copy of `items`) outweighs
/// its passes.
/// 48 is the measured crossover of the two on the short sorts of the
/// training workloads (DESIGN §3).  Both are stable on one key, so they
/// give the same permutation.
template <class T, class Value>
void sort_by_value(std::vector<T>& items, Value value) {
  constexpr std::size_t kInsertionCutoff = 48;
  const std::size_t n = items.size();
  if (n < kInsertionCutoff) {
    for (std::size_t i = 1; i < n; ++i) {
      const T item = items[i];
      const std::uint32_t key = value_key(value(item));
      std::size_t j = i;
      for (; j > 0 && key < value_key(value(items[j - 1])); --j) {
        items[j] = items[j - 1];
      }
      items[j] = item;
    }
    return;
  }
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("sort_by_value: more than 2^32 - 1 items");
  }
  std::array<std::array<std::uint32_t, 256>, 4> count{};
  for (const T& item : items) {
    const std::uint32_t key = value_key(value(item));
    for (std::size_t d = 0; d < 4; ++d) ++count[d][(key >> (8 * d)) & 0xFFu];
  }
  const std::uint32_t first_key = value_key(value(items[0]));
  // Passes alternate between `items` and a scratch copy that is never
  // value-initialised: each pass writes every one of its n slots.
  std::unique_ptr<T[]> scratch;
  T* from = items.data();
  T* to = nullptr;
  for (std::size_t d = 0; d < 4; ++d) {
    const auto shift = static_cast<unsigned>(8 * d);
    if (count[d][(first_key >> shift) & 0xFFu] == n) continue;
    if (!scratch) {
      scratch = std::make_unique_for_overwrite<T[]>(n);
      to = scratch.get();
    }
    std::uint32_t offset = 0;  // counts become each digit's first slot
    for (auto& c : count[d]) offset += std::exchange(c, offset);
    for (std::size_t i = 0; i < n; ++i) {
      to[count[d][(value_key(value(from[i])) >> shift) & 0xFFu]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != items.data()) std::copy(from, from + n, items.data());
}

/// Equi-depth interior boundaries from sample values: at most q-1 ascending
/// distinct cut points; interval j covers (b[j-1], b[j]] with b[-1] = -inf
/// and b[q-1] = +inf.  Fewer boundaries are returned when the sample has
/// fewer distinct values.  NaN samples take no part (they sort last and are
/// cut off), so no boundary is NaN; among zeros -0.0 sorts first.
inline std::vector<float> equi_depth_boundaries(std::vector<float> sample,
                                                int q) {
  std::vector<float> bounds;
  if (q <= 1) return bounds;
  sort_by_value(sample, [](float v) { return v; });
  sample.erase(std::partition_point(sample.begin(), sample.end(),
                                    [](float v) { return !std::isnan(v); }),
               sample.end());
  if (sample.empty()) return bounds;
  bounds.reserve(static_cast<std::size_t>(q - 1));
  const auto n = sample.size();
  for (int j = 1; j < q; ++j) {
    // Upper edge of the j-th equi-depth bucket of the sample.
    const auto idx = std::min(n - 1, n * static_cast<std::size_t>(j) /
                                         static_cast<std::size_t>(q));
    const float b = sample[idx];
    if (bounds.empty() || b > bounds.back()) bounds.push_back(b);
  }
  // A boundary equal to the sample maximum would make the last interval
  // empty for the sample; it still works for unseen data, so keep it.
  return bounds;
}

/// Per-attribute interval histogram: boundaries plus one class frequency
/// vector per interval.  There are bounds.size() + 1 intervals.
struct IntervalHist {
  std::vector<float> bounds;            ///< ascending interior boundaries
  std::vector<data::ClassCounts> freq;  ///< size bounds.size() + 1

  void reset_counts() {
    freq.assign(bounds.size() + 1, data::ClassCounts{});
  }

  std::size_t interval_count() const { return bounds.size() + 1; }

  /// Index of the interval containing `v`: first j with v <= bounds[j],
  /// else (NaN included) the last interval.
  std::size_t interval_of(float v) const {
    return lower_bound_lanes<1>({std::span<const float>(bounds)}, {v})[0];
  }

  void add(float v, std::int8_t label) {
    ++freq[interval_of(v)][static_cast<std::size_t>(label)];
  }

  data::ClassCounts total_counts() const {
    data::ClassCounts acc{};
    for (const auto& f : freq) acc += f;
    return acc;
  }
};

/// Builds interval histograms (zeroed counts) for all numeric attributes
/// from the node's sample records.
inline std::vector<IntervalHist> build_interval_hists(
    std::span<const data::Record> sample, int q) {
  std::vector<IntervalHist> hists(data::kNumNumeric);
  std::vector<float> values(sample.size());
  for (int a = 0; a < data::kNumNumeric; ++a) {
    for (std::size_t i = 0; i < sample.size(); ++i) {
      values[i] = sample[i].num[static_cast<std::size_t>(a)];
    }
    hists[static_cast<std::size_t>(a)].bounds =
        equi_depth_boundaries(values, q);
    hists[static_cast<std::size_t>(a)].reset_counts();
  }
  return hists;
}

}  // namespace pdc::clouds
