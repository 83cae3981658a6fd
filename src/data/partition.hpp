#pragma once

// Initial data distribution.
//
// The paper assumes the n training records are distributed at random,
// (near-)equally across the p processors before computation starts, and its
// load-balance arguments rest on Angluin-Valiant style bounds (Theorem 1 /
// Lemma 2): a random distribution puts n/p + O(sqrt(n/p log n)) records on
// each processor, and the same holds for any subset (e.g. a tree node's
// records) — which is why data parallelism balances without redistribution.
//
// The assignment is a pure hash of the record index, so it is reproducible
// and any rank can enumerate its slice independently.

#include <cstdint>
#include <vector>

namespace pdc::data {

namespace detail {
inline std::uint64_t mix64(std::uint64_t seed, std::uint64_t x) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + x + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace detail

/// Random (hash-based) assignment of global record indices to ranks.
class DatasetPartition {
 public:
  DatasetPartition(std::uint64_t total_records, int nprocs,
                   std::uint64_t seed = 42)
      : total_(total_records), nprocs_(nprocs), seed_(seed) {}

  std::uint64_t total_records() const { return total_; }
  int nprocs() const { return nprocs_; }

  int owner_of(std::uint64_t index) const {
    return static_cast<int>(detail::mix64(seed_, index) %
                            static_cast<std::uint64_t>(nprocs_));
  }

  std::uint64_t count_of(int rank) const {
    std::uint64_t c = 0;
    for (std::uint64_t i = 0; i < total_; ++i) {
      if (owner_of(i) == rank) ++c;
    }
    return c;
  }

 private:
  std::uint64_t total_;
  int nprocs_;
  std::uint64_t seed_;
};

/// Deterministic Bernoulli sampler over record indices: record i belongs to
/// the pre-drawn sample set S with probability `rate`, independently of the
/// processor layout.  CLOUDS builds its interval boundaries from S.
class Sampler {
 public:
  Sampler(double rate, std::uint64_t seed = 7)
      : threshold_(rate >= 1.0
                       ? ~0ull
                       : static_cast<std::uint64_t>(
                             rate * 18446744073709551615.0)),
        seed_(seed) {}

  bool contains(std::uint64_t index) const {
    return detail::mix64(seed_, index) <= threshold_;
  }

 private:
  std::uint64_t threshold_;
  std::uint64_t seed_;
};

}  // namespace pdc::data
