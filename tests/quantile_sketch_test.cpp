// Tests for the mergeable quantile sketch: accuracy bounds, determinism,
// mergeability, serialization, and boundary extraction compatible with the
// sample-based equi-depth construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "clouds/intervals.hpp"
#include "clouds/quantile_sketch.hpp"

namespace pdc::clouds {
namespace {

std::vector<float> uniform_data(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> u(0.0f, 1.0f);
  std::vector<float> out(n);
  for (auto& v : out) v = u(rng);
  return out;
}

double true_rank(const std::vector<float>& sorted, float v) {
  return static_cast<double>(
             std::lower_bound(sorted.begin(), sorted.end(), v) -
             sorted.begin()) /
         static_cast<double>(sorted.size());
}

TEST(QuantileSketch, EmptySketch) {
  QuantileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(s.boundaries(10).empty());
}

TEST(QuantileSketch, ExactOnSmallStreams) {
  QuantileSketch s(256);
  for (int i = 1; i <= 100; ++i) s.add(static_cast<float>(i));
  EXPECT_EQ(s.count(), 100u);
  // Below capacity nothing compacts: quantiles are exact.
  EXPECT_FLOAT_EQ(s.quantile(0.5), 50.0f);
  EXPECT_FLOAT_EQ(s.quantile(0.01), 1.0f);
  EXPECT_FLOAT_EQ(s.quantile(1.0), 100.0f);
}

TEST(QuantileSketch, RankErrorBoundedOnLargeStream) {
  auto data = uniform_data(200'000, 9);
  QuantileSketch s(256);
  for (float v : data) s.add(v);
  auto sorted = data;
  std::sort(sorted.begin(), sorted.end());
  for (double phi : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const float est = s.quantile(phi);
    EXPECT_NEAR(true_rank(sorted, est), phi, 0.03) << "phi=" << phi;
  }
}

TEST(QuantileSketch, SkewedDistribution) {
  std::mt19937_64 rng(4);
  std::exponential_distribution<float> e(3.0f);
  std::vector<float> data(100'000);
  for (auto& v : data) v = e(rng);
  QuantileSketch s(256);
  for (float v : data) s.add(v);
  auto sorted = data;
  std::sort(sorted.begin(), sorted.end());
  for (double phi : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(true_rank(sorted, s.quantile(phi)), phi, 0.03);
  }
}

TEST(QuantileSketch, DeterministicAcrossRuns) {
  auto data = uniform_data(50'000, 21);
  QuantileSketch a(128);
  QuantileSketch b(128);
  for (float v : data) a.add(v);
  for (float v : data) b.add(v);
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(QuantileSketch, MergeMatchesUnion) {
  auto data = uniform_data(100'000, 33);
  auto sorted = data;
  std::sort(sorted.begin(), sorted.end());

  // Shard across 4 "ranks", merge in rank order.
  std::vector<QuantileSketch> shards(4, QuantileSketch(256));
  for (std::size_t i = 0; i < data.size(); ++i) shards[i % 4].add(data[i]);
  QuantileSketch merged = shards[0];
  for (int r = 1; r < 4; ++r) merged.merge(shards[r]);

  EXPECT_EQ(merged.count(), data.size());
  for (double phi : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(true_rank(sorted, merged.quantile(phi)), phi, 0.04);
  }
}

TEST(QuantileSketch, SerializeRoundTrip) {
  auto data = uniform_data(30'000, 55);
  QuantileSketch s(128);
  for (float v : data) s.add(v);
  const auto bytes = s.serialize();
  mp::WireReader in(bytes, "sketch");
  auto restored = QuantileSketch::deserialize(in);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(restored.count(), s.count());
  EXPECT_EQ(restored.serialize(), bytes);
  EXPECT_FLOAT_EQ(restored.quantile(0.5), s.quantile(0.5));
}

TEST(QuantileSketch, SeveralSketchesShareOneBuffer) {
  QuantileSketch a(64);
  QuantileSketch b(64);
  for (int i = 0; i < 1000; ++i) {
    a.add(static_cast<float>(i));
    b.add(static_cast<float>(-i));
  }
  std::vector<std::byte> buffer = a.serialize();
  const auto more = b.serialize();
  buffer.insert(buffer.end(), more.begin(), more.end());
  mp::WireReader in(buffer, "sketches");
  auto ra = QuantileSketch::deserialize(in);
  auto rb = QuantileSketch::deserialize(in);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(ra.count(), 1000u);
  EXPECT_EQ(rb.count(), 1000u);
  EXPECT_GT(ra.quantile(0.5), 0.0f);
  EXPECT_LT(rb.quantile(0.5), 0.0f);
}

TEST(QuantileSketch, BoundariesMatchSampleConstructionOnUniformData) {
  auto data = uniform_data(100'000, 77);
  QuantileSketch s(256);
  for (float v : data) s.add(v);
  const auto from_sketch = s.boundaries(10);
  const auto from_sample = equi_depth_boundaries(data, 10);
  ASSERT_EQ(from_sketch.size(), from_sample.size());
  for (std::size_t j = 0; j < from_sketch.size(); ++j) {
    EXPECT_NEAR(from_sketch[j], from_sample[j], 0.03f);
  }
}

TEST(QuantileSketch, BoundariesSortedDistinct) {
  QuantileSketch s(64);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 50'000; ++i) {
    s.add(static_cast<float>(rng() % 50));  // heavy duplication
  }
  for (int q : {2, 10, 100}) {
    const auto b = s.boundaries(q);
    EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
    EXPECT_TRUE(std::adjacent_find(b.begin(), b.end()) == b.end());
    EXPECT_LE(static_cast<int>(b.size()), q - 1);
  }
}

}  // namespace
}  // namespace pdc::clouds
