// Tests for the stochastic (Monte Carlo) model extension.
#include "core/variability.hpp"

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
  p.theta = 1.0;
  return p;
}

TEST(ParameterDistribution, PointIsDegenerate) {
  stats::Random rng(1);
  const auto d = ParameterDistribution::point(0.7);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 0.7);
  EXPECT_DOUBLE_EQ(d.center(), 0.7);
}

TEST(ParameterDistribution, UniformStaysInRange) {
  stats::Random rng(2);
  const auto d = ParameterDistribution::uniform(0.2, 0.9);
  for (int i = 0; i < 1000; ++i) {
    const double x = d.sample(rng);
    EXPECT_GE(x, 0.2);
    EXPECT_LE(x, 0.9);
  }
  EXPECT_DOUBLE_EQ(d.center(), 0.55);
}

TEST(ParameterDistribution, NormalClampsToDomain) {
  stats::Random rng(3);
  const auto d = ParameterDistribution::normal(0.9, 0.5, 0.1, 1.0);
  for (int i = 0; i < 1000; ++i) {
    const double x = d.sample(rng);
    EXPECT_GE(x, 0.1);
    EXPECT_LE(x, 1.0);
  }
}

TEST(ParameterDistribution, LognormalIsPositiveAndClamped) {
  stats::Random rng(4);
  const auto d = ParameterDistribution::lognormal(2.0, 0.8, 1.0, 50.0);
  for (int i = 0; i < 1000; ++i) {
    const double x = d.sample(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 50.0);
  }
}

TEST(ParameterDistribution, RejectsBadArguments) {
  EXPECT_THROW((void)ParameterDistribution::uniform(1.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)ParameterDistribution::normal(0.5, -1.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)ParameterDistribution::lognormal(-1.0, 0.5, 0.0, 1.0), std::invalid_argument);
}

TEST(MonteCarlo, DegenerateDistributionsMatchDeterministicModel) {
  const ModelParameters p = base_params();
  const StochasticModel model = StochasticModel::from(p);
  const auto result = monte_carlo_t_pct(model, 500, 7);
  // All draws identical and equal to the closed-form T_pct.
  EXPECT_NEAR(result.t_pct.min(), t_pct(p).seconds(), 1e-12);
  EXPECT_NEAR(result.t_pct.max(), t_pct(p).seconds(), 1e-12);
  EXPECT_NEAR(variability_penalty_s(result, model), 0.0, 1e-12);
}

TEST(MonteCarlo, DeterministicForSeed) {
  StochasticModel model = StochasticModel::from(base_params());
  model.alpha = ParameterDistribution::uniform(0.3, 1.0);
  const auto a = monte_carlo_t_pct(model, 2000, 11);
  const auto b = monte_carlo_t_pct(model, 2000, 11);
  EXPECT_DOUBLE_EQ(a.t_pct.quantile(0.99), b.t_pct.quantile(0.99));
  EXPECT_DOUBLE_EQ(a.probability_remote_wins, b.probability_remote_wins);
}

TEST(MonteCarlo, VariabilityWidensTheDistribution) {
  StochasticModel model = StochasticModel::from(base_params());
  model.alpha = ParameterDistribution::uniform(0.3, 1.0);
  const auto result = monte_carlo_t_pct(model, 5000, 13);
  EXPECT_LT(result.t_pct.min(), result.t_pct.max());
  // P99 must exceed the median under genuine spread.
  EXPECT_GT(result.t_pct.quantile(0.99), result.t_pct.quantile(0.5));
}

TEST(MonteCarlo, JensenPenaltyPositiveForAlphaVariability) {
  // T_pct is convex in alpha (1/alpha term): symmetric alpha variability
  // must RAISE the mean completion time above the central value — the
  // quantitative reason average-based planning under-provisions.
  StochasticModel model = StochasticModel::from(base_params());
  model.alpha = ParameterDistribution::uniform(0.4, 1.0);  // center 0.7
  const auto result = monte_carlo_t_pct(model, 20000, 17);
  EXPECT_GT(variability_penalty_s(result, model), 0.0);
}

TEST(MonteCarlo, ProbabilityWithinDeadlineMonotone) {
  StochasticModel model = StochasticModel::from(base_params());
  model.alpha = ParameterDistribution::uniform(0.3, 1.0);
  model.theta = ParameterDistribution::uniform(1.0, 3.0);
  const auto result = monte_carlo_t_pct(model, 5000, 19);
  const double p1 = result.probability_within(units::Seconds::of(1.0));
  const double p5 = result.probability_within(units::Seconds::of(5.0));
  const double p60 = result.probability_within(units::Seconds::of(60.0));
  EXPECT_LE(p1, p5);
  EXPECT_LE(p5, p60);
  EXPECT_DOUBLE_EQ(p60, 1.0);
}

TEST(MonteCarlo, TailAwareFeasibilityStricterThanMedian) {
  StochasticModel model = StochasticModel::from(base_params());
  model.alpha = ParameterDistribution::uniform(0.2, 1.0);
  const auto result = monte_carlo_t_pct(model, 5000, 23);
  // Any deadline feasible at P99 must be feasible at P50.
  const units::Seconds deadline = units::Seconds::of(result.t_pct.quantile(0.99));
  EXPECT_TRUE(result.feasible_at(0.99, deadline));
  EXPECT_TRUE(result.feasible_at(0.5, deadline));
  // And the P50 deadline is NOT P99-feasible when the tail is real.
  const units::Seconds median_deadline = units::Seconds::of(result.t_pct.quantile(0.5));
  EXPECT_FALSE(result.feasible_at(0.99, median_deadline));
}

TEST(MonteCarlo, RemoteWinProbabilityTracksR) {
  // r distribution straddling 1: remote sometimes slower than local.
  StochasticModel model = StochasticModel::from(base_params());
  model.r = ParameterDistribution::uniform(0.5, 2.0);
  const auto result = monte_carlo_t_pct(model, 10000, 29);
  EXPECT_GT(result.probability_remote_wins, 0.0);
  EXPECT_LT(result.probability_remote_wins, 1.0);
}

TEST(MonteCarlo, RejectsZeroSamples) {
  const StochasticModel model = StochasticModel::from(base_params());
  EXPECT_THROW(monte_carlo_t_pct(model, 0), std::invalid_argument);
}

}  // namespace
}  // namespace sss::core
