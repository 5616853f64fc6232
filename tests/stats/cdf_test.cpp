// Tests for the empirical CDF used by the Fig. 3 reproduction.
#include "stats/cdf.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace sss::stats {
namespace {

TEST(EmpiricalCdf, EmptyBehaviour) {
  EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.probability_at_or_below(1.0), 0.0);
  EXPECT_THROW((void)cdf.quantile(0.5), std::invalid_argument);
  EXPECT_THROW((void)cdf.max(), std::invalid_argument);
  EXPECT_DOUBLE_EQ(cdf.mean(), 0.0);
}

TEST(EmpiricalCdf, ForwardLookup) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.probability_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.probability_at_or_below(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.probability_at_or_below(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.probability_at_or_below(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.probability_at_or_below(100.0), 1.0);
}

TEST(EmpiricalCdf, InverseLookup) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.26), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(EmpiricalCdf, ForwardInverseConsistency) {
  EmpiricalCdf cdf({5.0, 1.0, 9.0, 3.0, 7.0});
  for (double q : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    EXPECT_GE(cdf.probability_at_or_below(cdf.quantile(q)), q - 1e-12);
  }
}

TEST(EmpiricalCdf, MomentsAndExtremes) {
  EmpiricalCdf cdf({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 6.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 4.0);
}

TEST(EmpiricalCdf, TailRatioCapturesLongTail) {
  // 99 fast transfers and one 10x outlier — the long-tail shape of Fig. 3.
  std::vector<double> sample(99, 1.0);
  sample.push_back(10.0);
  EmpiricalCdf cdf(std::move(sample));
  EXPECT_DOUBLE_EQ(cdf.tail_ratio(0.99, 0.5), 1.0);   // P99 still 1.0 (99th of 100)
  EXPECT_DOUBLE_EQ(cdf.tail_ratio(1.0, 0.5), 10.0);   // max / median
}

}  // namespace
}  // namespace sss::stats
