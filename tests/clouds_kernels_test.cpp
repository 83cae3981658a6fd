// Tests for the CLOUDS split-derivation kernels: gini, intervals,
// categorical subset search, the gini lower bound (key SSE invariant), and
// the equivalence of SSE and the direct method.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "clouds/categorical.hpp"
#include "clouds/estimate.hpp"
#include "clouds/gini.hpp"
#include "clouds/intervals.hpp"
#include "clouds/splitters.hpp"
#include "data/agrawal.hpp"
#include "mp/clock.hpp"

namespace pdc::clouds {
namespace {

using data::ClassCounts;
using data::Record;

std::int64_t draw(std::mt19937& rng, int bound) {
  return static_cast<std::int64_t>(rng() % static_cast<unsigned>(bound));
}

TEST(Gini, PureSetIsZero) {
  EXPECT_DOUBLE_EQ(gini(ClassCounts{{{100, 0}}}), 0.0);
  EXPECT_DOUBLE_EQ(gini(ClassCounts{{{0, 7}}}), 0.0);
}

TEST(Gini, EvenSplitIsHalf) {
  EXPECT_DOUBLE_EQ(gini(ClassCounts{{{50, 50}}}), 0.5);
}

TEST(Gini, EmptySetIsZeroByConvention) {
  EXPECT_DOUBLE_EQ(gini(ClassCounts{}), 0.0);
}

TEST(Gini, BoundedByTheory) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    ClassCounts c{{{draw(rng, 1000), draw(rng, 1000)}}};
    const double g = gini(c);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 0.5 + 1e-12);  // 1 - 1/k for k = 2
  }
}

TEST(Gini, SplitGiniIsWeightedAverage) {
  const ClassCounts l{{{30, 10}}};
  const ClassCounts r{{{5, 55}}};
  const double expect = (40.0 / 100.0) * gini(l) + (60.0 / 100.0) * gini(r);
  EXPECT_DOUBLE_EQ(split_gini(l, r), expect);
}

TEST(Gini, PerfectSplitGivesZero) {
  EXPECT_DOUBLE_EQ(split_gini(ClassCounts{{{40, 0}}}, ClassCounts{{{0, 60}}}),
                   0.0);
}

TEST(Intervals, BoundariesSortedDistinctAndAtMostQMinus1) {
  std::mt19937 rng(3);
  std::vector<float> sample(1000);
  for (auto& v : sample) {
    v = static_cast<float>(rng() % 100);  // many duplicates
  }
  for (int q : {2, 5, 10, 50, 200}) {
    auto b = equi_depth_boundaries(sample, q);
    EXPECT_LE(static_cast<int>(b.size()), q - 1);
    EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
    EXPECT_TRUE(std::adjacent_find(b.begin(), b.end()) == b.end());
  }
}

TEST(Intervals, EquiDepthOnUniformSample) {
  std::vector<float> sample(10'000);
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> u(0.0f, 1.0f);
  for (auto& v : sample) v = u(rng);
  const int q = 10;
  auto b = equi_depth_boundaries(sample, q);
  ASSERT_EQ(b.size(), 9u);
  // Boundaries should be near the deciles.
  for (std::size_t j = 0; j < b.size(); ++j) {
    EXPECT_NEAR(b[j], 0.1f * static_cast<float>(j + 1), 0.03f);
  }
}

TEST(Intervals, DegenerateSamples) {
  EXPECT_TRUE(equi_depth_boundaries({}, 10).empty());
  EXPECT_TRUE(equi_depth_boundaries({1.0f, 1.0f, 1.0f}, 10).size() <= 1);
  EXPECT_TRUE(equi_depth_boundaries({1.0f, 2.0f}, 1).empty());
}

/// `n` ascending distinct boundaries; odd-sized sets include 0.0, so -0.0
/// meets a 0.0 bound.
std::vector<float> random_bounds(std::mt19937& rng, std::size_t n) {
  std::uniform_real_distribution<float> u(-1000.0f, 1000.0f);
  std::set<float> drawn;
  if (n % 2 == 1) drawn.insert(0.0f);
  while (drawn.size() < n) drawn.insert(u(rng));
  return {drawn.begin(), drawn.end()};
}

/// The floats an interval lookup must place exactly: every bound and its
/// neighbours, both zeros, both infinities, NaN and the finite extremes.
std::vector<float> edge_values(const std::vector<float>& bounds) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> v = {0.0f,
                          -0.0f,
                          kInf,
                          -kInf,
                          std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::lowest(),
                          std::numeric_limits<float>::max()};
  for (const float b : bounds) {
    v.push_back(b);
    v.push_back(std::nextafter(b, -kInf));
    v.push_back(std::nextafter(b, kInf));
  }
  return v;
}

/// The interval of `v` by definition: the first j with v <= bounds[j], else
/// bounds.size().  std::lower_bound's index for every value but NaN, which
/// is <= no bound and so lands in the last interval.
std::size_t interval_index(const std::vector<float>& bounds, float v) {
  return static_cast<std::size_t>(
      std::partition_point(bounds.begin(), bounds.end(),
                           [v](float b) { return !(v <= b); }) -
      bounds.begin());
}

TEST(Intervals, IntervalOfMatchesLinearScan) {
  IntervalHist h;
  h.bounds = {1.0f, 3.0f, 7.0f};
  h.reset_counts();
  ASSERT_EQ(h.interval_count(), 4u);
  auto linear = [&](float v) -> std::size_t {
    for (std::size_t j = 0; j < h.bounds.size(); ++j) {
      if (v <= h.bounds[j]) return j;
    }
    return h.bounds.size();
  };
  for (float v : {-5.0f, 0.0f, 1.0f, 1.5f, 3.0f, 3.1f, 7.0f, 100.0f}) {
    EXPECT_EQ(h.interval_of(v), linear(v)) << v;
  }

  // The defined index exactly, for every bound count up to 70, the counts
  // either side of each deeper search level, and every edge value.
  std::vector<std::size_t> counts(71);
  for (std::size_t n = 0; n < counts.size(); ++n) counts[n] = n;
  counts.insert(counts.end(),
                {127, 128, 129, 255, 256, 257, 511, 512, 513, 599, 600, 700});
  std::mt19937 rng(31);
  std::uniform_real_distribution<float> u(-1100.0f, 1100.0f);
  for (const std::size_t n : counts) {
    h.bounds = random_bounds(rng, n);
    auto values = edge_values(h.bounds);
    for (int i = 0; i < 64; ++i) values.push_back(u(rng));
    for (const float v : values) {
      ASSERT_EQ(h.interval_of(v), interval_index(h.bounds, v))
          << "n = " << n << ", v = " << v;
    }
  }
}

// ---- sort_by_value: the one value sort of the exact kernels ----

/// IEEE-754 totalOrder with every NaN moved last (positive NaNs before
/// negative ones, each in totalOrder), written without value_key: the
/// comparator sort_by_value must agree with.
bool total_order_less(float a, float b) {
  const bool nan_a = std::isnan(a);
  const bool nan_b = std::isnan(b);
  if (nan_a != nan_b) return nan_b;
  const auto ua = std::bit_cast<std::uint32_t>(a);
  const auto ub = std::bit_cast<std::uint32_t>(b);
  if (nan_a) {
    if (std::signbit(a) != std::signbit(b)) return std::signbit(b);
    return std::signbit(a) ? ua > ub : ua < ub;  // -NaN: larger payload first
  }
  if (a != b) return a < b;
  return std::signbit(a) && !std::signbit(b);  // -0.0 before +0.0
}

/// Floats a value sort must order exactly: both zeros, both infinities,
/// denormals, the finite extremes, NaNs of both signs and payloads.
std::vector<float> special_values() {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  return {0.0f,
          -0.0f,
          kInf,
          -kInf,
          nan,
          -nan,
          std::bit_cast<float>(0x7FC0'0001u),
          std::bit_cast<float>(0xFFC0'0001u),
          std::bit_cast<float>(0x7F80'0001u),  // signalling payload
          std::numeric_limits<float>::denorm_min(),
          -std::numeric_limits<float>::denorm_min(),
          std::numeric_limits<float>::min(),
          std::numeric_limits<float>::lowest(),
          std::numeric_limits<float>::max(),
          1.0f,
          -1.0f};
}

/// `n` floats mixing special values, a few duplicated finite values and
/// wide-range random ones.
std::vector<float> value_mix(std::mt19937& rng, std::size_t n) {
  const auto special = special_values();
  std::uniform_real_distribution<float> wide(-1e6f, 1e6f);
  std::vector<float> v(n);
  for (auto& x : v) {
    switch (rng() % 4) {
      case 0:
        x = special[rng() % special.size()];
        break;
      case 1:
        x = static_cast<float>(static_cast<int>(rng() % 7) - 3);
        break;
      default:
        x = wide(rng);
    }
  }
  return v;
}

std::vector<std::uint32_t> bits_of(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = std::bit_cast<std::uint32_t>(v[i]);
  }
  return out;
}

TEST(SortByValue, MatchesStableSortUnderTotalOrder) {
  const auto identity = [](float v) { return v; };
  const auto by_value = [](const AlivePoint& p) { return p.value; };
  std::mt19937 rng(41);
  for (const std::size_t n :
       {0u, 1u, 2u, 47u, 48u, 49u, 63u, 64u, 65u, 1000u, 100'000u}) {
    const auto input = value_mix(rng, n);
    auto want = input;
    std::stable_sort(want.begin(), want.end(), total_order_less);
    auto got = input;
    sort_by_value(got, identity);
    ASSERT_EQ(bits_of(got), bits_of(want)) << "n = " << n;

    // Stability: equal values keep their input order, seen through labels.
    std::vector<AlivePoint> points(n);
    for (std::size_t i = 0; i < n; ++i) {
      points[i] = {input[i], static_cast<std::int8_t>(i % 2)};
    }
    auto want_points = points;
    std::stable_sort(want_points.begin(), want_points.end(),
                     [](const AlivePoint& a, const AlivePoint& b) {
                       return total_order_less(a.value, b.value);
                     });
    sort_by_value(points, by_value);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(points[i].value),
                std::bit_cast<std::uint32_t>(want_points[i].value))
          << "n = " << n << ", i = " << i;
      ASSERT_EQ(points[i].label, want_points[i].label)
          << "n = " << n << ", i = " << i;
    }
  }
}

TEST(SortByValue, EveryPermutationGivesTheSameBits) {
  const auto identity = [](float v) { return v; };
  // Eight values with distinct bits: all 8! orders through the insertion
  // sort give one output.
  std::vector<float> v = {-0.0f,
                          0.0f,
                          std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::denorm_min(),
                          std::numeric_limits<float>::lowest()};
  std::sort(v.begin(), v.end(), total_order_less);
  const auto want = bits_of(v);
  std::size_t orders = 0;
  do {
    auto got = v;
    sort_by_value(got, identity);
    ASSERT_EQ(bits_of(got), want) << "order " << orders;
    ++orders;
  } while (std::next_permutation(v.begin(), v.end(), total_order_less));
  EXPECT_EQ(orders, 40'320u);

  // Shuffles of inputs on both sides of the insertion cutoff, with
  // duplicates and both zeros, through both sorts.
  std::mt19937 rng(43);
  for (const std::size_t n :
       {47u, 48u, 49u, 63u, 64u, 65u, 1000u, 100'000u}) {
    auto input = value_mix(rng, n);
    auto first = input;
    sort_by_value(first, identity);
    for (int trial = 0; trial < 5; ++trial) {
      std::shuffle(input.begin(), input.end(), rng);
      auto got = input;
      sort_by_value(got, identity);
      ASSERT_EQ(bits_of(got), bits_of(first))
          << "n = " << n << ", trial " << trial;
    }
  }
}

TEST(Intervals, BoundariesIgnoreNanAndTakeOneZeroSign) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> sample;
  for (int i = 0; i < 40; ++i) sample.push_back(static_cast<float>(i % 10));
  auto with_nan = sample;
  for (int i = 0; i < 15; ++i) with_nan.push_back(i % 2 == 0 ? kNan : -kNan);
  for (const int q : {2, 4, 10, 100}) {
    const auto b = equi_depth_boundaries(with_nan, q);
    EXPECT_EQ(b, equi_depth_boundaries(sample, q)) << "q = " << q;
    for (const float x : b) EXPECT_FALSE(std::isnan(x)) << "q = " << q;
  }
  EXPECT_TRUE(equi_depth_boundaries({kNan, -kNan, kNan}, 4).empty());

  // 300 values, a third of them zeros of either sign: the zero boundary's
  // sign depends on the multiset, never on the order.
  std::mt19937 rng(47);
  std::vector<float> zeros(300);
  for (std::size_t i = 0; i < zeros.size(); ++i) {
    zeros[i] = i % 3 == 0   ? (i % 2 == 0 ? 0.0f : -0.0f)
               : i % 3 == 1 ? -static_cast<float>(i)
                            : static_cast<float>(i);
  }
  const auto want = bits_of(equi_depth_boundaries(zeros, 3));
  ASSERT_EQ(want.size(), 2u);
  for (int trial = 0; trial < 200; ++trial) {
    std::shuffle(zeros.begin(), zeros.end(), rng);
    ASSERT_EQ(bits_of(equi_depth_boundaries(zeros, 3)), want)
        << "trial " << trial;
  }
}

TEST(Intervals, PrefixCountsAccumulate) {
  IntervalHist h;
  h.bounds = {10.0f, 20.0f};
  h.reset_counts();
  h.add(5.0f, 0);
  h.add(10.0f, 1);
  h.add(15.0f, 0);
  h.add(25.0f, 1);
  const ClassCounts total{{{2, 2}}};
  EXPECT_EQ(h.total_counts(), total);
  // The boundary rule accumulates the class counts at or below boundary j
  // (the paper's prefix-sum step) and scores that side against the rest.
  const ClassCounts at_or_below[] = {ClassCounts{{{1, 1}}},   // <= 10
                                     ClassCounts{{{2, 1}}}};  // <= 20
  for (std::size_t j = 0; j < 2; ++j) {
    const std::size_t owned[] = {j};
    std::uint64_t evaluated = 0;
    const auto c = evaluate_owned_boundaries(h, 0, owned, evaluated);
    ASSERT_TRUE(c.valid) << "j = " << j;
    EXPECT_EQ(c.split.threshold, h.bounds[j]);
    EXPECT_DOUBLE_EQ(c.gini,
                     split_gini(at_or_below[j], total - at_or_below[j]));
    EXPECT_EQ(evaluated, 1u);
  }
  const std::size_t both[] = {0, 1};
  std::uint64_t evaluated = 0;
  const auto best = evaluate_owned_boundaries(h, 0, both, evaluated);
  EXPECT_EQ(best.split.threshold, 20.0f);  // gini 1/3 beats 1/2
  EXPECT_EQ(evaluated, 2u);
}

TEST(Categorical, CountMatrixAccumulatesAndFlattens) {
  CountMatrix m(data::kZipcode);
  Record r{};
  r.cat[data::kZipcode] = 3;
  r.label = 1;
  m.add(r);
  r.cat[data::kZipcode] = 3;
  r.label = 0;
  m.add(r);
  EXPECT_EQ(m.counts[3], (ClassCounts{{{1, 1}}}));
  auto flat = m.flatten();
  ASSERT_EQ(flat.size(), static_cast<std::size_t>(
                             data::kCatCardinality[data::kZipcode] *
                             data::kNumClasses));
  CountMatrix m2(data::kZipcode);
  m2.unflatten(flat);
  EXPECT_EQ(m2.counts[3], m.counts[3]);
}

TEST(Categorical, ExhaustiveFindsPerfectSubset) {
  // elevel in {0,2,4} -> class 0, {1,3} -> class 1: separable.
  CountMatrix m(data::kELevel);
  m.counts[0] = {{{10, 0}}};
  m.counts[1] = {{{0, 20}}};
  m.counts[2] = {{{5, 0}}};
  m.counts[3] = {{{0, 5}}};
  m.counts[4] = {{{9, 0}}};
  auto best = best_categorical_split(m);
  ASSERT_TRUE(best.valid);
  EXPECT_DOUBLE_EQ(best.gini, 0.0);
  // value 0 always on the left by construction.
  EXPECT_TRUE(best.split.subset & 1u);
  EXPECT_EQ(best.split.subset, 0b10101u);
}

TEST(Categorical, GreedyNeverBeatsExhaustiveButIsClose) {
  std::mt19937 rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    CountMatrix m(data::kELevel);  // cardinality 5: exhaustive is exact
    for (auto& c : m.counts) c = {{{draw(rng, 50), draw(rng, 50)}}};
    const auto exact = detail::exhaustive_subset(m);
    const auto greedy = detail::greedy_subset(m);
    if (exact.valid && greedy.valid) {
      EXPECT_GE(greedy.gini + 1e-12, exact.gini);
      EXPECT_LE(greedy.gini, exact.gini + 0.05);  // small card: near-exact
    }
  }
}

TEST(Categorical, DegenerateMatrixHasNoSplit) {
  CountMatrix m(data::kELevel);
  m.counts[2] = {{{10, 5}}};  // single populated value: nothing to split
  auto best = best_categorical_split(m);
  EXPECT_FALSE(best.valid);
}

// ---- gini lower bound: the SSE soundness property ----

double brute_force_min_gini(const ClassCounts& before,
                            const ClassCounts& inside,
                            const ClassCounts& after) {
  // Enumerate every integer apportionment of the interval counts.
  double best = split_gini(before, inside + after);
  for (std::int64_t t0 = 0; t0 <= inside[0]; ++t0) {
    for (std::int64_t t1 = 0; t1 <= inside[1]; ++t1) {
      ClassCounts l = before;
      l[0] += t0;
      l[1] += t1;
      ClassCounts r = after;
      r[0] += inside[0] - t0;
      r[1] += inside[1] - t1;
      best = std::min(best, split_gini(l, r));
    }
  }
  return best;
}

TEST(GiniLowerBound, NeverExceedsAnyDiscreteSplit) {
  std::mt19937 rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    ClassCounts before{{{draw(rng, 30), draw(rng, 30)}}};
    ClassCounts inside{{{draw(rng, 12), draw(rng, 12)}}};
    ClassCounts after{{{draw(rng, 30), draw(rng, 30)}}};
    const double bound = gini_lower_bound(before, inside, after);
    const double brute = brute_force_min_gini(before, inside, after);
    EXPECT_LE(bound, brute + 1e-12)
        << "trial " << trial << " bound " << bound << " brute " << brute;
  }
}

TEST(GiniLowerBound, TightWhenIntervalEmpty) {
  const ClassCounts before{{{10, 3}}};
  const ClassCounts inside{};
  const ClassCounts after{{{2, 9}}};
  EXPECT_DOUBLE_EQ(gini_lower_bound(before, inside, after),
                   split_gini(before, after));
}

TEST(GiniLowerBound, ZeroWhenPerfectSeparationPossible) {
  // All class-0 points can go left, all class-1 right.
  const ClassCounts before{{{5, 0}}};
  const ClassCounts inside{{{7, 9}}};
  const ClassCounts after{{{0, 4}}};
  EXPECT_DOUBLE_EQ(gini_lower_bound(before, inside, after), 0.0);
}

// ---- SS / SSE / direct equivalences ----

std::vector<Record> random_records(std::size_t n, int function,
                                   std::uint64_t seed) {
  data::AgrawalGenerator gen(
      {.function = function, .seed = seed, .label_noise = 0.05});
  return gen.make_range(0, n);
}

io::Scan<Record> memory_scan(std::span<const Record> records) {
  return [records](const auto& visit) {
    for (const auto& r : records) visit(r);
  };
}

TEST(Splitters, CollectStatsCountsEveryRecord) {
  auto records = random_records(2000, 2, 5);
  std::vector<Record> sample(records.begin(), records.begin() + 100);
  auto stats = NodeStats::with_boundaries(sample, 20);
  const auto src = memory_scan(records);
  CostHooks hooks;
  collect_stats(src, stats, hooks);
  EXPECT_EQ(data::total(stats.counts), 2000);
  for (int a = 0; a < data::kNumNumeric; ++a) {
    EXPECT_EQ(data::total(stats.hists[a].total_counts()), 2000);
  }
  for (const auto& m : stats.cats) {
    EXPECT_EQ(data::total(m.total()), 2000);
  }
}

TEST(Splitters, AddBinsEveryLaneAtItsOwnDepth) {
  // Six histograms of different bound counts, as sketch mode and small
  // nodes produce: each lane of the search stops at its own depth.
  std::mt19937 rng(37);
  const std::array<std::size_t, data::kNumNumeric> sizes = {0, 1, 2,
                                                            15, 64, 599};
  auto stats = NodeStats::with_boundaries({}, 1);
  std::array<std::vector<float>, data::kNumNumeric> edges;
  for (std::size_t a = 0; a < sizes.size(); ++a) {
    stats.hists[a].bounds = random_bounds(rng, sizes[a]);
    stats.hists[a].reset_counts();
    edges[a] = edge_values(stats.hists[a].bounds);
  }
  auto records = random_records(4000, 2, 8);
  std::uniform_real_distribution<float> u(-1100.0f, 1100.0f);
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t a = 0; a < edges.size(); ++a) {
      records[i].num[a] =
          i % 2 == 0 ? edges[a][(i / 2) % edges[a].size()] : u(rng);
    }
  }

  std::array<std::vector<ClassCounts>, data::kNumNumeric> want;
  for (std::size_t a = 0; a < want.size(); ++a) {
    want[a].resize(sizes[a] + 1);
  }
  for (const auto& r : records) {
    stats.add(r);
    for (std::size_t a = 0; a < want.size(); ++a) {
      ++want[a][interval_index(stats.hists[a].bounds, r.num[a])]
            [static_cast<std::size_t>(r.label)];
    }
  }
  for (std::size_t a = 0; a < want.size(); ++a) {
    EXPECT_EQ(stats.hists[a].freq, want[a]) << "attribute " << a;
  }
  EXPECT_EQ(data::total(stats.counts), 4000);
}

TEST(Splitters, SsBestIsAmongBoundaryGinis) {
  auto records = random_records(3000, 2, 6);
  std::vector<Record> sample(records.begin(), records.begin() + 200);
  auto stats = NodeStats::with_boundaries(sample, 16);
  const auto src = memory_scan(records);
  CostHooks hooks;
  collect_stats(src, stats, hooks);
  auto best = ss_split(stats, hooks);
  ASSERT_TRUE(best.valid);
  EXPECT_GE(best.gini, 0.0);
  EXPECT_LE(best.gini, gini(stats.counts) + 1e-12);
}

class SseEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SseEquivalence, SseMatchesDirectOptimum) {
  // Because gini_lower_bound is a true lower bound, SSE must find a split
  // with exactly the direct method's optimal gini, for ANY interval layout.
  auto [function, q, n] = GetParam();
  auto records =
      random_records(static_cast<std::size_t>(n), function,
                     static_cast<std::uint64_t>(function * 100 + q));
  std::vector<Record> sample;
  for (std::size_t i = 0; i < records.size(); i += 10) {
    sample.push_back(records[i]);
  }
  auto stats = NodeStats::with_boundaries(sample, q);
  const auto src = memory_scan(records);
  CostHooks hooks;
  collect_stats(src, stats, hooks);
  SseDiag diag;
  auto sse = sse_split(stats, src, hooks, &diag);
  auto direct = direct_split(records, hooks);
  ASSERT_TRUE(sse.valid);
  ASSERT_TRUE(direct.valid);
  EXPECT_NEAR(sse.gini, direct.gini, 1e-9)
      << "q=" << q << " n=" << n << " f=" << function;
  EXPECT_LE(diag.gini_final, diag.gini_boundary + 1e-12);
  EXPECT_GE(diag.survival, 0.0);
  EXPECT_LE(diag.survival, 1.0 * data::kNumNumeric);  // per-attr overlap
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SseEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 6),
                       ::testing::Values(4, 16, 64),
                       ::testing::Values(500, 3000)));

TEST(Splitters, LargerQShrinksSurvival) {
  auto records = random_records(5000, 2, 9);
  std::vector<Record> sample;
  for (std::size_t i = 0; i < records.size(); i += 5) {
    sample.push_back(records[i]);
  }
  CostHooks hooks;
  double survival_small_q = 0.0;
  double survival_large_q = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const int q = pass == 0 ? 8 : 128;
    auto stats = NodeStats::with_boundaries(sample, q);
    const auto src = memory_scan(records);
    collect_stats(src, stats, hooks);
    SseDiag diag;
    (void)sse_split(stats, src, hooks, &diag);
    (pass == 0 ? survival_small_q : survival_large_q) = diag.survival;
  }
  EXPECT_LE(survival_large_q, survival_small_q + 1e-9);
}

TEST(Splitters, DirectOnSeparableDataIsPerfect) {
  // Label = (age <= 50): one threshold separates perfectly.
  std::vector<Record> records;
  std::mt19937 rng(31);
  for (int i = 0; i < 500; ++i) {
    Record r{};
    r.num[data::kAge] = static_cast<float>(rng() % 80);
    r.label = r.num[data::kAge] <= 50.0f ? 0 : 1;
    records.push_back(r);
  }
  CostHooks hooks;
  auto best = direct_split(records, hooks);
  ASSERT_TRUE(best.valid);
  EXPECT_NEAR(best.gini, 0.0, 1e-12);
  EXPECT_EQ(best.split.kind, Split::Kind::kNumeric);
  EXPECT_EQ(static_cast<int>(best.split.attr), data::kAge);
}

TEST(Splitters, EmptyDataYieldsNoSplit) {
  CostHooks hooks;
  EXPECT_FALSE(direct_split({}, hooks).valid);
}

TEST(Splitters, SingleClassDataYieldsNoUsefulGain) {
  std::vector<Record> records;
  for (int i = 0; i < 100; ++i) {
    Record r{};
    r.num[data::kAge] = static_cast<float>(i);
    r.label = 0;
    records.push_back(r);
  }
  CostHooks hooks;
  auto best = direct_split(records, hooks);
  // A split may exist but cannot improve gini below 0 (already pure).
  if (best.valid) {
    EXPECT_DOUBLE_EQ(best.gini, 0.0);
  }
}

TEST(Splitters, NanValuesStayRightAndEndTheSweep) {
  // Eight records whose age separates the classes, one of them NaN: the
  // sweep stops at the NaN, which goes right with the larger ages.
  for (const float nan : {std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN()}) {
    std::vector<Record> records(8);
    for (std::size_t i = 0; i < records.size(); ++i) {
      records[i].num[data::kAge] =
          i == 5 ? nan : static_cast<float>(20 + 10 * i);
      records[i].label = i < 4 ? 0 : 1;
    }
    CostHooks hooks;
    const auto best = direct_split(records, hooks);
    ASSERT_TRUE(best.valid);
    EXPECT_DOUBLE_EQ(best.gini, 0.0);
    EXPECT_EQ(static_cast<int>(best.split.attr), data::kAge);
    EXPECT_EQ(best.split.threshold, 50.0f);
    for (const auto& r : records) {
      EXPECT_EQ(best.split.goes_left(r), r.label == 0);
    }

    // The alive sweep over a whole-range interval holding the same points.
    AliveInterval iv;
    iv.attr = data::kAge;
    iv.unbounded_lo = iv.unbounded_hi = true;
    iv.inside = ClassCounts{{{4, 4}}};
    std::vector<AlivePoint> points;
    for (const auto& r : records) {
      ASSERT_TRUE(iv.contains(r.num[data::kAge]));
      points.push_back({r.num[data::kAge], r.label});
    }
    const auto alive = evaluate_alive_interval(iv, points, hooks);
    ASSERT_TRUE(alive.valid);
    EXPECT_EQ(alive.split.threshold, 50.0f);
    EXPECT_DOUBLE_EQ(alive.gini, 0.0);

    // All NaN: nothing to split on, and the sweeps still return.
    for (auto& p : points) p.value = nan;
    EXPECT_FALSE(evaluate_alive_interval(iv, points, hooks).valid);
  }
}

TEST(Splitters, NanRecordsGoRightInEveryMethod) {
  // 70 records whose age mostly decides the class, 14 of them NaN of
  // either sign and mostly of the older class.  Every distinct age is a
  // boundary, so SS, SSE and the direct method score the same thresholds;
  // each must report the gini of the partition Split::goes_left makes,
  // which sends NaN right.  The histogram bins NaN in the last interval.
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  std::vector<Record> records(70);
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto& r = records[i];
    r.num.fill(1.0f);
    r.cat.fill(0);
    if (i % 5 == 4) {
      r.num[data::kAge] = i % 2 == 0 ? kNan : -kNan;
      r.label = i % 3 == 0 ? 0 : 1;
    } else {
      r.num[data::kAge] = static_cast<float>(20 + 10 * (i % 7));
      r.label = (r.num[data::kAge] >= 50.0f) != (i % 11 == 0) ? 1 : 0;
    }
  }
  const auto partition_gini = [&](const Split& s) {
    ClassCounts left{};
    ClassCounts right{};
    for (const auto& r : records) {
      ++(s.goes_left(r) ? left : right)[static_cast<std::size_t>(r.label)];
    }
    return split_gini(left, right);
  };

  CostHooks hooks;
  const auto direct = direct_split(records, hooks);
  auto stats = NodeStats::with_boundaries(records, 64);
  ASSERT_EQ(stats.hists[data::kAge].bounds.size(), 7u);
  const auto scan = memory_scan(records);
  collect_stats(scan, stats, hooks);
  EXPECT_EQ(data::total(stats.hists[data::kAge].freq.back()), 14);
  const auto ss = ss_split(stats, hooks);
  const auto sse = sse_split(stats, scan, hooks);
  for (const auto* got : {&direct, &ss, &sse}) {
    ASSERT_TRUE(got->valid);
    EXPECT_EQ(static_cast<int>(got->split.attr), data::kAge);
    EXPECT_EQ(got->split.threshold, 40.0f);
    EXPECT_DOUBLE_EQ(got->gini, partition_gini(got->split));
  }
  EXPECT_EQ(ss.gini, direct.gini);
  EXPECT_EQ(sse.gini, direct.gini);
}

TEST(Splitters, ZeroThresholdSignDoesNotDependOnRecordOrder) {
  // 300 records, a third with age -0.0 or +0.0: the zero group's
  // threshold takes the bits of -0.0 (which sorts first) in every order.
  std::vector<Record> records(300);
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto& r = records[i];
    r.num[data::kAge] = i % 3 == 0   ? (i % 2 == 0 ? 0.0f : -0.0f)
                        : i % 3 == 1 ? -static_cast<float>(i)
                                     : static_cast<float>(i);
    for (std::size_t a = 0; a < data::kNumNumeric; ++a) {
      if (a != static_cast<std::size_t>(data::kAge)) r.num[a] = 1.0f;
    }
    r.label = r.num[data::kAge] <= 0.0f ? 0 : 1;
  }
  CostHooks hooks;
  std::mt19937 rng(53);
  for (int trial = 0; trial < 200; ++trial) {
    std::shuffle(records.begin(), records.end(), rng);
    const auto best = direct_split(records, hooks);
    ASSERT_TRUE(best.valid);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(best.split.threshold),
              std::bit_cast<std::uint32_t>(-0.0f))
        << "trial " << trial;
  }
}

// ---- scan_alive: the searched harvest against the linear one ----

struct Taken {
  std::size_t k;
  std::uint32_t value_bits;
  std::int8_t label;
  friend bool operator==(const Taken&, const Taken&) = default;
};

/// The harvest as CLOUDS states it, and as scan_alive ran before the
/// search: every record tested against every alive interval in list
/// order, with the interval edges written out here.
std::vector<Taken> linear_harvest(std::span<const Record> records,
                                  std::span<const AliveInterval> alive,
                                  const CostHooks& hooks) {
  std::vector<Taken> out;
  for (const auto& r : records) {
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const auto& iv = alive[k];
      const float v = r.num[static_cast<std::size_t>(iv.attr)];
      if ((iv.unbounded_lo || v > iv.lo) && (iv.unbounded_hi || v <= iv.hi)) {
        out.push_back({k, std::bit_cast<std::uint32_t>(v), r.label});
      }
    }
    hooks.charge_scan(alive.size());
  }
  return out;
}

std::vector<Taken> searched_harvest(std::span<const Record> records,
                                    std::span<const AliveInterval> alive,
                                    const CostHooks& hooks) {
  std::vector<Taken> out;
  scan_alive(memory_scan(records), alive, hooks,
             [&](std::size_t k, float v, std::int8_t label) {
               out.push_back({k, std::bit_cast<std::uint32_t>(v), label});
             });
  return out;
}

TEST(ScanAlive, MatchesTheLinearHarvest) {
  std::mt19937 rng(59);
  std::uniform_real_distribution<float> u(-1100.0f, 1100.0f);
  const std::size_t targets[] = {1, 2, 5, 40, 300, 1000, 3000};
  for (const std::size_t target : targets) {
    for (int trial = 0; trial < 3; ++trial) {
      // Per attribute, random bounds (in one trial, half the attributes
      // have none) with every interval holding two points, then about
      // `target` of the intervals made alive by the production rule.
      auto stats = NodeStats::with_boundaries({}, 1);
      std::array<std::vector<float>, data::kNumNumeric> edges;
      std::size_t intervals = 0;
      for (std::size_t a = 0; a < edges.size(); ++a) {
        auto& hist = stats.hists[a];
        const bool none = trial == 1 && a % 2 == 0;
        hist.bounds = random_bounds(rng, none ? 0 : rng() % (target / 2 + 1));
        hist.reset_counts();
        for (auto& f : hist.freq) f = ClassCounts{{{1, 1}}};
        edges[a] = edge_values(hist.bounds);
        intervals += hist.freq.size();
      }
      const double keep =
          static_cast<double>(target) / static_cast<double>(intervals);
      std::vector<AliveInterval> alive;
      for (int a = 0; a < data::kNumNumeric; ++a) {
        const auto& hist = stats.hists[static_cast<std::size_t>(a)];
        std::vector<std::size_t> owned;
        for (std::size_t j = 0; j < hist.freq.size(); ++j) {
          if (std::uniform_real_distribution<double>(0, 1)(rng) < keep) {
            owned.push_back(j);
          }
        }
        std::uint64_t evaluated = 0;
        owned_alive_intervals(hist, a, owned,
                              std::numeric_limits<double>::infinity(), alive,
                              evaluated);
      }
      if (alive.empty()) continue;

      // Records whose values sit on every edge, beside it, at the special
      // values, and at random.
      std::vector<Record> records(4000);
      for (std::size_t i = 0; i < records.size(); ++i) {
        for (std::size_t a = 0; a < edges.size(); ++a) {
          records[i].num[a] =
              i % 3 != 2 ? edges[a][(i + 7 * a) % edges[a].size()] : u(rng);
        }
        records[i].label = static_cast<std::int8_t>(i % 2);
      }
      mp::Clock linear_clock;
      mp::Clock searched_clock;
      const auto want =
          linear_harvest(records, alive, CostHooks{&linear_clock, {}});
      const auto got =
          searched_harvest(records, alive, CostHooks{&searched_clock, {}});
      ASSERT_EQ(got, want) << alive.size() << " alive intervals, trial "
                           << trial;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    searched_clock.snapshot().compute_s),
                std::bit_cast<std::uint64_t>(
                    linear_clock.snapshot().compute_s));
    }
  }
}

TEST(ScanAlive, WholeRangeIntervalTakesNan) {
  // With no bounds the one interval is unbounded at both ends and holds
  // every value, NaN included, as the linear harvest has it.
  auto stats = NodeStats::with_boundaries({}, 1);
  stats.hists[0].freq[0] = ClassCounts{{{1, 1}}};
  std::vector<AliveInterval> alive;
  std::uint64_t evaluated = 0;
  const std::size_t owned[] = {0};
  owned_alive_intervals(stats.hists[0], 0, owned,
                        std::numeric_limits<double>::infinity(), alive,
                        evaluated);
  ASSERT_EQ(alive.size(), 1u);
  std::vector<Record> records(6);
  const auto specials = special_values();
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].num[0] = specials[i];
  }
  const auto got = searched_harvest(records, alive, {});
  EXPECT_EQ(got, linear_harvest(records, alive, {}));
  EXPECT_EQ(got.size(), records.size());
}

TEST(ScanAlive, UnorderedAliveListThrows) {
  AliveInterval a;
  a.attr = 1;
  a.interval = 3;
  a.lo = 1.0f;
  a.hi = 2.0f;
  AliveInterval b = a;
  b.interval = 4;
  b.lo = 2.0f;
  b.hi = 3.0f;
  AliveInterval c = a;
  c.attr = 0;
  const std::vector<Record> records(3);
  const auto harvest = [&](std::vector<AliveInterval> alive) {
    return searched_harvest(records, alive, {});
  };
  EXPECT_NO_THROW(harvest({a, b}));
  EXPECT_NO_THROW(harvest({c, a, b}));
  EXPECT_THROW(harvest({b, a}), std::logic_error);
  EXPECT_THROW(harvest({a, a}), std::logic_error);
  EXPECT_THROW(harvest({a, c}), std::logic_error);
  AliveInterval bad = a;
  bad.attr = data::kNumNumeric;
  EXPECT_THROW(harvest({bad}), std::logic_error);
  bad.attr = -1;
  EXPECT_THROW(harvest({bad}), std::logic_error);
}

TEST(Splitters, CostHooksAdvanceClock) {
  mp::Clock clock;
  CostHooks hooks{&clock, mp::Machine{}};
  auto records = random_records(1000, 2, 13);
  std::vector<Record> sample(records.begin(), records.begin() + 50);
  auto stats = NodeStats::with_boundaries(sample, 10);
  const auto src = memory_scan(records);
  collect_stats(src, stats, hooks);
  EXPECT_GT(clock.snapshot().compute_s, 0.0);
  const double after_collect = clock.snapshot().compute_s;
  (void)sse_split(stats, src, hooks);
  EXPECT_GT(clock.snapshot().compute_s, after_collect);
}

}  // namespace
}  // namespace pdc::clouds
