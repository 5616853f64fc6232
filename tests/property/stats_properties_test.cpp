// Property tests for the statistics substrate across random samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats/cdf.hpp"
#include "stats/percentile.hpp"
#include "stats/rng.hpp"

namespace sss::stats {
namespace {

std::vector<double> random_sample(std::uint64_t seed, std::size_t n) {
  Random rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix of body and tail values, like FCT logs.
    out.push_back(rng.uniform() < 0.9 ? rng.uniform(0.1, 1.0) : rng.lognormal(1.0, 1.0));
  }
  return out;
}

class StatsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsProperty, QuantilesAreMonotoneInQ) {
  const auto sample = random_sample(GetParam(), 500);
  QuantileSet qs(sample);
  double prev = qs.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = qs.quantile(q);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

TEST_P(StatsProperty, QuantilesBoundedByExtremes) {
  const auto sample = random_sample(GetParam(), 300);
  QuantileSet qs(sample);
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_GE(qs.quantile(q), qs.min());
    EXPECT_LE(qs.quantile(q), qs.max());
  }
}

TEST_P(StatsProperty, CdfIsAValidDistributionFunction) {
  const auto sample = random_sample(GetParam(), 400);
  EmpiricalCdf cdf(sample);
  const double lo = cdf.quantile(0.0);
  // Monotone non-decreasing in x, 0 below min, 1 at max.
  EXPECT_DOUBLE_EQ(cdf.probability_at_or_below(lo - 1.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.probability_at_or_below(cdf.max()), 1.0);
  double prev = 0.0;
  for (double x = lo; x <= cdf.max(); x += (cdf.max() - lo) / 37.0) {
    const double p = cdf.probability_at_or_below(x);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

TEST_P(StatsProperty, CdfQuantileAgreesWithQuantileSet) {
  const auto sample = random_sample(GetParam(), 256);
  EmpiricalCdf cdf(sample);
  QuantileSet qs(sample);
  // The step-CDF quantile and the interpolating quantile must agree within
  // one order-statistic gap.
  for (double q : {0.1, 0.5, 0.9}) {
    const double a = cdf.quantile(q);
    const double b = qs.quantile(q);
    const auto& sorted = qs.sorted();
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), std::min(a, b));
    const auto jt = std::upper_bound(sorted.begin(), sorted.end(), std::max(a, b));
    EXPECT_LE(jt - it, static_cast<std::ptrdiff_t>(sorted.size() / 10 + 2));
  }
}

TEST_P(StatsProperty, TailRatioAtLeastOne) {
  const auto sample = random_sample(GetParam(), 300);
  EmpiricalCdf cdf(sample);
  EXPECT_GE(cdf.tail_ratio(0.99, 0.5), 1.0);
  EXPECT_GE(cdf.tail_ratio(1.0, 0.9), 1.0);
}

INSTANTIATE_TEST_SUITE_P(RandomSamples, StatsProperty,
                         ::testing::Range<std::uint64_t>(100, 116));

}  // namespace
}  // namespace sss::stats
