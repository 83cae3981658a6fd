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
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "clouds/gini.hpp"
#include "data/record.hpp"

namespace pdc::clouds {

/// std::lower_bound's index into each of L ascending arrays at once: lane a
/// gets the first j with !(bounds[a][j] < v[a]), or bounds[a].size() when
/// there is none (so NaN lands in 0, and -0.0 sits with a 0.0 bound).  The
/// lanes descend level by level side by side, each step a compare feeding
/// a select (cmov) rather than a data-dependent jump, so the L load chains
/// overlap instead of serialising behind mispredicted branches.  A lane
/// that has narrowed to one candidate re-reads it until the longest lane
/// is done; an empty lane reads +inf, which no value compares above.
/// Whatever the contents, every element read and index returned is in
/// range.
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
      at[a] = at[a][half] < v[a] ? at[a] + half : at[a];
      n[a] -= half;
    }
  }
  std::array<std::size_t, L> out{};
  for (std::size_t a = 0; a < L; ++a) {
    out[a] = static_cast<std::size_t>(at[a] - first[a]) +
             static_cast<std::size_t>(*at[a] < v[a]);
  }
  return out;
}

/// Equi-depth interior boundaries from sample values: at most q-1 ascending
/// distinct cut points; interval j covers (b[j-1], b[j]] with b[-1] = -inf
/// and b[q-1] = +inf.  Fewer boundaries are returned when the sample has
/// fewer distinct values.
inline std::vector<float> equi_depth_boundaries(std::vector<float> sample,
                                                int q) {
  std::vector<float> bounds;
  if (q <= 1 || sample.empty()) return bounds;
  std::sort(sample.begin(), sample.end());
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
  /// else the last interval.
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
