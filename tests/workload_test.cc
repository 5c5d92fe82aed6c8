// Statistical property tests for the workload generators: the self-similar
// 80/20 law (paper §7.3), Zipf skew ordering, uniform coverage, PRNG stream
// independence, and key-space encodings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "common/random.h"
#include "workload/distributions.h"
#include "workload/key_generator.h"

namespace optiql {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  SplitMix64 c(43);
  EXPECT_NE(SplitMix64(42).Next(), c.Next());
}

TEST(Xoshiro256Test, DoubleIsInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro256Test, BoundedStaysInBounds) {
  Xoshiro256 rng(11);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Xoshiro256Test, BoundedIsRoughlyUniform) {
  Xoshiro256 rng(13);
  constexpr uint64_t kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kSamples / kBuckets * 0.9);
    EXPECT_LT(c, kSamples / kBuckets * 1.1);
  }
}

TEST(UniformDistributionTest, CoversTheWholeRange) {
  Xoshiro256 rng(3);
  UniformDistribution dist(50);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(dist.Next(rng));
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(SelfSimilarDistributionTest, EightyTwentyLaw) {
  // Paper §7.3: with skew 0.2, 80% of accesses target the first 20% of the
  // key space (recursively).
  Xoshiro256 rng(17);
  constexpr uint64_t kN = 100000;
  SelfSimilarDistribution dist(kN, 0.2);
  constexpr int kSamples = 200000;
  int hot = 0;
  int hot_of_hot = 0;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t v = dist.Next(rng);
    ASSERT_LT(v, kN);
    if (v < kN / 5) ++hot;
    if (v < kN / 25) ++hot_of_hot;
  }
  const double hot_fraction = static_cast<double>(hot) / kSamples;
  EXPECT_NEAR(hot_fraction, 0.8, 0.02);
  // Recursion: 64% of accesses hit the first 4% of keys.
  const double hot2_fraction = static_cast<double>(hot_of_hot) / kSamples;
  EXPECT_NEAR(hot2_fraction, 0.64, 0.02);
}

TEST(SelfSimilarDistributionTest, DenseHotHead) {
  // The paper notes the first 256 keys of a dense 100M keyspace absorb
  // ~16% of accesses under skew 0.2.
  Xoshiro256 rng(19);
  constexpr uint64_t kN = 100000000;
  SelfSimilarDistribution dist(kN, 0.2);
  constexpr int kSamples = 400000;
  int head = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (dist.Next(rng) < 256) ++head;
  }
  const double head_fraction = static_cast<double>(head) / kSamples;
  EXPECT_NEAR(head_fraction, 0.16, 0.02);
}

TEST(SelfSimilarDistributionTest, HigherSkewConcentratesMore) {
  Xoshiro256 rng(23);
  constexpr uint64_t kN = 10000;
  SelfSimilarDistribution mild(kN, 0.4);
  SelfSimilarDistribution strong(kN, 0.1);
  int mild_hot = 0, strong_hot = 0;
  for (int i = 0; i < 50000; ++i) {
    if (mild.Next(rng) < kN / 10) ++mild_hot;
    if (strong.Next(rng) < kN / 10) ++strong_hot;
  }
  EXPECT_GT(strong_hot, mild_hot);
}

TEST(ZipfianDistributionTest, RankFrequencyIsMonotone) {
  Xoshiro256 rng(29);
  ZipfianDistribution dist(1000, 0.9);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 300000; ++i) {
    const uint64_t v = dist.Next(rng);
    ASSERT_LT(v, 1000u);
    ++counts[v];
  }
  // Head ranks dominate and decrease (allowing sampling noise by comparing
  // well-separated ranks).
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
  EXPECT_GT(counts[100], counts[900]);
  // Rank 0 of a theta=0.9 Zipf over 1000 items draws a large share
  // (~1/zeta(n,theta) plus inversion rounding): well above 6%.
  EXPECT_GT(counts[0], 20000);
}

TEST(ZipfianDistributionTest, LowThetaApproachesUniform) {
  Xoshiro256 rng(31);
  ZipfianDistribution dist(100, 0.01);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[dist.Next(rng)];
  // No bucket should dominate under near-zero skew.
  EXPECT_LT(*std::max_element(counts.begin(), counts.end()), 3000);
}

TEST(KeyDistTest, ParseFillsDefaultsAndParameters) {
  KeyDist dist;
  ASSERT_TRUE(KeyDist::Parse("uniform", dist));
  EXPECT_EQ(dist.kind, KeyDist::Kind::kUniform);
  ASSERT_TRUE(KeyDist::Parse("zipf", dist));
  EXPECT_EQ(dist.kind, KeyDist::Kind::kZipfian);
  EXPECT_DOUBLE_EQ(dist.skew, 0.99);
  ASSERT_TRUE(KeyDist::Parse("zipf:0.7", dist));
  EXPECT_DOUBLE_EQ(dist.skew, 0.7);
  ASSERT_TRUE(KeyDist::Parse("selfsimilar", dist));
  EXPECT_EQ(dist.kind, KeyDist::Kind::kSelfSimilar);
  EXPECT_DOUBLE_EQ(dist.skew, 0.2);
  ASSERT_TRUE(KeyDist::Parse("selfsimilar:0.3", dist));
  EXPECT_DOUBLE_EQ(dist.skew, 0.3);
}

TEST(KeyDistTest, ParseRejectsOutOfRangeAndUnknownSpecs) {
  KeyDist dist;
  for (const char* spec : {"uniform:0.5", "zipf:1.0", "zipf:0",
                           "selfsimilar:0.5", "selfsimilar:0", "latest", ""}) {
    EXPECT_FALSE(KeyDist::Parse(spec, dist)) << spec;
  }
}

TEST(KeyDistTest, NameRoundTripsThroughParse) {
  for (const KeyDist& dist : {KeyDist::Uniform(), KeyDist::Zipfian(0.9),
                              KeyDist::Zipfian(0.99),
                              KeyDist::SelfSimilar(0.2)}) {
    KeyDist parsed;
    ASSERT_TRUE(KeyDist::Parse(dist.Name(), parsed)) << dist.Name();
    EXPECT_EQ(parsed.kind, dist.kind);
    EXPECT_DOUBLE_EQ(parsed.skew, dist.skew);
    EXPECT_EQ(parsed.Name(), dist.Name());
  }
}

// The sampler must draw exactly the stream of the distribution it names,
// so a run keeps its key sequence for a given seed.
TEST(KeySamplerTest, DrawsTheNamedDistributionsStream) {
  constexpr uint64_t kN = 5000;
  const UniformDistribution uniform(kN);
  const SelfSimilarDistribution selfsim(kN, 0.2);
  const ZipfianDistribution zipf(kN, 0.9);
  const KeySampler uniform_sampler(KeyDist::Uniform(), kN);
  const KeySampler selfsim_sampler(KeyDist::SelfSimilar(0.2), kN);
  const KeySampler zipf_sampler(KeyDist::Zipfian(0.9), kN);
  Xoshiro256 a(37), b(37);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(uniform_sampler.Next(a), uniform.Next(b));
    ASSERT_EQ(selfsim_sampler.Next(a), selfsim.Next(b));
    ASSERT_EQ(zipf_sampler.Next(a), zipf.Next(b));
  }
}

TEST(KeyGeneratorTest, ScrambleIsInjectiveOnSample) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 100000; ++i) {
    EXPECT_TRUE(seen.insert(ScrambleKey(i)).second);
  }
}

TEST(KeyGeneratorTest, DenseAndSparseSpaces) {
  EXPECT_EQ(MakeKey(5, KeySpace::kDense), 5u);
  EXPECT_EQ(MakeKey(5, KeySpace::kSparse), ScrambleKey(5));
  EXPECT_NE(MakeKey(5, KeySpace::kSparse), 5u);
}

TEST(KeyGeneratorTest, BigEndianPreservesOrderBytewise) {
  // Byte-wise comparison of big-endian encodings must match integer order.
  const uint64_t values[] = {0, 1, 255, 256, 65535, 1ULL << 32,
                             (1ULL << 32) + 1, ~0ULL};
  for (size_t i = 0; i + 1 < std::size(values); ++i) {
    const uint64_t a = ToBigEndian(values[i]);
    const uint64_t b = ToBigEndian(values[i + 1]);
    EXPECT_LT(std::memcmp(&a, &b, 8), 0)
        << values[i] << " vs " << values[i + 1];
  }
  EXPECT_EQ(FromBigEndian(ToBigEndian(0x1234567890ABCDEFULL)),
            0x1234567890ABCDEFULL);
}

}  // namespace
}  // namespace optiql
