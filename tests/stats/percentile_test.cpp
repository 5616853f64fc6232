// Tests for exact quantiles.
#include "stats/percentile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace sss::stats {
namespace {

TEST(Quantile, ThrowsOnEmpty) {
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> v{3.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 3.0);
}

TEST(Quantile, LinearInterpolationMatchesNumpyConvention) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
}

TEST(QuantileSet, SortsOnceAnswersMany) {
  QuantileSet qs({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(qs.min(), 1.0);
  EXPECT_DOUBLE_EQ(qs.max(), 5.0);
  EXPECT_DOUBLE_EQ(qs.median(), 3.0);
  EXPECT_EQ(qs.size(), 5u);
  EXPECT_TRUE(std::is_sorted(qs.sorted().begin(), qs.sorted().end()));
}

TEST(QuantileSet, EmptyThrowsOnQuery) {
  QuantileSet qs({});
  EXPECT_TRUE(qs.empty());
  EXPECT_THROW((void)qs.min(), std::invalid_argument);
  EXPECT_THROW((void)qs.quantile(0.5), std::invalid_argument);
}

}  // namespace
}  // namespace sss::stats
