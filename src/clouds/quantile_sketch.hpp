#pragma once

// Mergeable epsilon-approximate quantile summary (a simplified KLL
// compactor stack) — an extension beyond the paper.
//
// CLOUDS derives its interval boundaries from a pre-drawn random sample S
// that must be partitioned alongside the data (and replicated, in
// pCLOUDS).  A mergeable quantile sketch removes both requirements: each
// rank sketches its local stream, sketches are merged with one global
// combine, and equi-depth boundaries fall out of the merged summary.  The
// sketch is deterministic (alternating compaction offsets instead of coin
// flips) so every rank derives identical boundaries from identical merge
// orders — the property all of pCLOUDS' replication logic rests on.
//
// Error: with per-level capacity k, the rank error is O(log(n/k)/k); the
// tests bound it empirically.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mp/serialize.hpp"

namespace pdc::clouds {

class QuantileSketch {
 public:
  explicit QuantileSketch(std::size_t k = 256) : k_(std::max<std::size_t>(k, 8)) {}

  void add(float v) {
    if (levels_.empty()) levels_.emplace_back();
    levels_[0].push_back(v);
    ++count_;
    compact_from(0);
  }

  void merge(const QuantileSketch& other) {
    if (other.levels_.size() > levels_.size()) {
      levels_.resize(other.levels_.size());
    }
    for (std::size_t lvl = 0; lvl < other.levels_.size(); ++lvl) {
      levels_[lvl].insert(levels_[lvl].end(), other.levels_[lvl].begin(),
                          other.levels_[lvl].end());
    }
    count_ += other.count_;
    for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) compact_from(lvl);
  }

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Approximate value of the phi-quantile (phi in [0, 1]).
  float quantile(double phi) const {
    const auto items = weighted_items();
    if (items.empty()) return 0.0f;
    const double target = phi * static_cast<double>(count_);
    double acc = 0.0;
    for (const auto& [v, w] : items) {
      acc += static_cast<double>(w);
      if (acc >= target) return v;
    }
    return items.back().first;
  }

  /// Equi-depth interior boundaries: up to q-1 ascending distinct values,
  /// interchangeable with equi_depth_boundaries() over a sample.
  std::vector<float> boundaries(int q) const {
    std::vector<float> out;
    if (q <= 1 || empty()) return out;
    const auto items = weighted_items();
    double acc = 0.0;
    std::size_t i = 0;
    for (int j = 1; j < q; ++j) {
      const double target =
          static_cast<double>(count_) * j / static_cast<double>(q);
      while (i < items.size() &&
             acc + static_cast<double>(items[i].second) < target) {
        acc += static_cast<double>(items[i].second);
        ++i;
      }
      if (i >= items.size()) break;
      const float b = items[i].first;
      if (out.empty() || b > out.back()) out.push_back(b);
    }
    return out;
  }

  /// Wire format: [k][count][nlevels][{size, values...} per level]
  /// [ncompactions][offsets...], u64 counts and raw float payloads.
  /// The compaction parities travel with the levels: a resumed sketch
  /// must continue the alternating-offset sequence where the original
  /// stopped, or the first post-resume compaction diverges from an
  /// uninterrupted run and the ranks stop agreeing on boundaries.
  std::vector<std::byte> serialize() const {
    mp::WireWriter out;
    out.put_raw<std::uint64_t>(k_);
    out.put_raw<std::uint64_t>(count_);
    out.put_raw<std::uint64_t>(levels_.size());
    for (const auto& lvl : levels_) out.put_array(lvl);
    out.put_array(compactions_);
    return out.take();
  }

  /// Inverse of serialize(): reads one sketch from `in`, leaving it
  /// positioned after the sketch.  Throws pdc::WireError on truncated
  /// input or an implausible count.
  static QuantileSketch deserialize(mp::WireReader& in) {
    QuantileSketch s;
    s.k_ = std::max<std::size_t>(in.get_raw<std::uint64_t>(), std::size_t{8});
    s.count_ = in.get_raw<std::uint64_t>();
    // Each level costs at least its u64 size.
    s.levels_.resize(in.count(sizeof(std::uint64_t)));
    for (auto& lvl : s.levels_) lvl = in.get_array<float>();
    s.compactions_ = in.get_array<std::uint64_t>();
    return s;
  }

 private:
  void compact_from(std::size_t start) {
    for (std::size_t lvl = start; lvl < levels_.size(); ++lvl) {
      if (levels_[lvl].size() < capacity_of(lvl)) break;
      // Grow the stack BEFORE taking references: emplace_back may
      // reallocate the outer vector.
      if (lvl + 1 >= levels_.size()) levels_.emplace_back();
      auto& buf = levels_[lvl];
      auto& up = levels_[lvl + 1];
      std::sort(buf.begin(), buf.end());
      // Deterministic alternating offset replaces KLL's random coin; it
      // keeps the summary unbiased over repeated compactions while making
      // merges reproducible across ranks.
      if (compactions_.size() <= lvl) compactions_.resize(lvl + 1, 0);
      const std::size_t offset = compactions_[lvl]++ & 1u;
      for (std::size_t i = offset; i < buf.size(); i += 2) {
        up.push_back(buf[i]);
      }
      buf.clear();
    }
  }

  /// Uniform per-level capacity.  With H = log2(n/k) levels the
  /// deterministic-compaction rank error is bounded by ~H/(2k) of n; the
  /// O(k log(n/k)) memory is irrelevant at the scales this library runs.
  /// (KLL's geometrically decaying capacities save memory at the cost of a
  /// randomized analysis; determinism matters more here — see the header
  /// comment.)
  std::size_t capacity_of(std::size_t) const { return k_; }

  std::vector<std::pair<float, std::uint64_t>> weighted_items() const {
    std::vector<std::pair<float, std::uint64_t>> items;
    for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
      const std::uint64_t w = 1ull << lvl;
      for (const float v : levels_[lvl]) items.emplace_back(v, w);
    }
    std::sort(items.begin(), items.end());
    return items;
  }

  std::size_t k_;
  std::uint64_t count_ = 0;
  std::vector<std::vector<float>> levels_;
  std::vector<std::uint64_t> compactions_;
};

}  // namespace pdc::clouds
