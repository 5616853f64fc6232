// Tests for parameter sweeps and break-even (critical-value) analysis.
#include "core/sensitivity.hpp"

#include <gtest/gtest.h>

namespace sss::core {
namespace {

ModelParameters base_params() {
  ModelParameters p;
  p.s_unit = units::Bytes::gigabytes(2.0);
  p.complexity = units::Complexity::flop_per_byte(17000.0);
  p.r_local = units::FlopsRate::teraflops(5.0);
  p.r_remote = units::FlopsRate::teraflops(50.0);
  p.bandwidth = units::DataRate::gigabits_per_second(25.0);
  p.alpha = 0.8;
  p.theta = 1.2;
  return p;
}

TEST(Sweep, ValidatesArguments) {
  EXPECT_THROW(sweep_alpha(base_params(), 0.1, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(sweep_alpha(base_params(), 0.9, 0.1, 5), std::invalid_argument);
}

TEST(Sweep, EndpointsAndSize) {
  const auto pts = sweep_alpha(base_params(), 0.1, 1.0, 10);
  ASSERT_EQ(pts.size(), 10u);
  EXPECT_DOUBLE_EQ(pts.front().x, 0.1);
  EXPECT_DOUBLE_EQ(pts.back().x, 1.0);
}

TEST(SweepAlpha, GainIncreasesWithAlpha) {
  const auto pts = sweep_alpha(base_params(), 0.1, 1.0, 10);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].gain, pts[i - 1].gain);
    EXPECT_LT(pts[i].t_pct_s, pts[i - 1].t_pct_s);
  }
  // T_local is alpha-independent.
  EXPECT_DOUBLE_EQ(pts.front().t_local_s, pts.back().t_local_s);
}

TEST(SweepTheta, GainDecreasesWithTheta) {
  const auto pts = sweep_theta(base_params(), 1.0, 5.0, 9);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i].gain, pts[i - 1].gain);
  }
}

TEST(SweepR, GainIncreasesWithRemoteSpeed) {
  const auto pts = sweep_r(base_params(), 1.0, 50.0, 8);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].gain, pts[i - 1].gain);
  }
}

TEST(SweepBandwidth, GainIncreasesWithBandwidth) {
  const auto pts = sweep(base_params(), 1.0, 100.0, 8, [](ModelParameters& p, double x) {
    p.bandwidth = units::DataRate::gigabits_per_second(x);
  });
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].gain, pts[i - 1].gain);
  }
}

TEST(CriticalAlpha, CrossoverIsExact) {
  const ModelParameters p = base_params();
  const auto a_star = critical_alpha(p);
  ASSERT_TRUE(a_star.has_value());
  // At alpha = alpha*, T_pct == T_local.
  ModelParameters at = p;
  at.alpha = std::min(*a_star, 1.0);
  if (*a_star <= 1.0) {
    EXPECT_NEAR(t_pct(at).seconds(), t_local(at).seconds(), 1e-9);
  }
  // Slightly above the critical value, streaming wins.
  if (*a_star < 0.99) {
    at.alpha = *a_star * 1.05;
    EXPECT_LT(t_pct(at).seconds(), t_local(at).seconds());
  }
}

TEST(CriticalAlpha, NoneWhenRemoteSlowerThanLocal) {
  ModelParameters p = base_params();
  p.r_remote = units::FlopsRate::teraflops(4.0);  // r < 1
  EXPECT_FALSE(critical_alpha(p).has_value());
  EXPECT_FALSE(critical_theta(p).has_value());
}

TEST(CriticalTheta, CrossoverIsExact) {
  const ModelParameters p = base_params();
  const auto th_star = critical_theta(p);
  ASSERT_TRUE(th_star.has_value());
  ASSERT_GE(*th_star, 1.0);
  ModelParameters at = p;
  at.theta = *th_star;
  EXPECT_NEAR(t_pct(at).seconds(), t_local(at).seconds(), 1e-9);
  at.theta = *th_star * 0.9;
  if (at.theta >= 1.0) {
    EXPECT_LT(t_pct(at).seconds(), t_local(at).seconds());
  }
}

TEST(CriticalR, CrossoverIsExact) {
  const ModelParameters p = base_params();
  const auto r_star = critical_r(p);
  ASSERT_TRUE(r_star.has_value());
  ModelParameters at = p;
  at.r_remote = units::FlopsRate::flops(p.r_local.flop_per_s() * *r_star);
  EXPECT_NEAR(t_pct(at).seconds(), t_local(at).seconds(), 1e-9);
}

TEST(CriticalR, NoneWhenTransferAloneExceedsLocal) {
  ModelParameters p = base_params();
  // Make the link hopeless: 0.1 Gbps for 2 GB -> transfer ~ 200 s >> T_local.
  p.bandwidth = units::DataRate::gigabits_per_second(0.1);
  EXPECT_FALSE(critical_r(p).has_value());
}

}  // namespace
}  // namespace sss::core
