// Tests for the sustained-operation queuing extension.
#include "core/concurrency.hpp"

#include <gtest/gtest.h>

#include "core/completion.hpp"

namespace sss::core {
namespace {

TEST(AnalyzeSustained, ValidatesInput) {
  SustainedWorkload w;
  w.window = units::Seconds::of(0.0);
  EXPECT_THROW((void)analyze_sustained(w), std::invalid_argument);
  w.window = units::Seconds::of(1.0);
  w.mean_service = units::Seconds::of(-1.0);
  EXPECT_THROW((void)analyze_sustained(w), std::invalid_argument);
  w.mean_service = units::Seconds::of(0.5);
  w.service_cv = -0.1;
  EXPECT_THROW((void)analyze_sustained(w), std::invalid_argument);
}

TEST(AnalyzeSustained, StableLowUtilization) {
  SustainedWorkload w;
  w.window = units::Seconds::of(1.0);
  w.mean_service = units::Seconds::of(0.2);
  w.service_cv = 0.5;
  const auto a = analyze_sustained(w);
  EXPECT_TRUE(a.stable);
  EXPECT_DOUBLE_EQ(a.utilization, 0.2);
  EXPECT_GE(a.mean_queue_wait.seconds(), 0.0);
  EXPECT_NEAR(a.mean_latency.seconds(), a.mean_queue_wait.seconds() + 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(a.backlog_growth_per_second, 0.0);
}

TEST(AnalyzeSustained, DeterministicServiceHasNoQueueing) {
  // cv = 0 with deterministic arrivals: D/D/1 never queues below rho = 1.
  SustainedWorkload w;
  w.window = units::Seconds::of(1.0);
  w.mean_service = units::Seconds::of(0.9);
  w.service_cv = 0.0;
  const auto a = analyze_sustained(w);
  EXPECT_TRUE(a.stable);
  EXPECT_DOUBLE_EQ(a.mean_queue_wait.seconds(), 0.0);
}

TEST(AnalyzeSustained, WaitExplodesNearSaturation) {
  SustainedWorkload w;
  w.window = units::Seconds::of(1.0);
  w.service_cv = 1.0;
  w.mean_service = units::Seconds::of(0.5);
  const double wait_50 = analyze_sustained(w).mean_queue_wait.seconds();
  w.mean_service = units::Seconds::of(0.95);
  const double wait_95 = analyze_sustained(w).mean_queue_wait.seconds();
  w.mean_service = units::Seconds::of(0.99);
  const double wait_99 = analyze_sustained(w).mean_queue_wait.seconds();
  EXPECT_LT(wait_50, wait_95);
  EXPECT_LT(wait_95, wait_99);
  // The blow-up is non-linear: the last 4 points of utilization cost more
  // than the first 45.
  EXPECT_GT(wait_99 - wait_95, wait_95 - wait_50);
}

TEST(AnalyzeSustained, UnstableReportsBacklogGrowth) {
  SustainedWorkload w;
  w.window = units::Seconds::of(1.0);
  w.mean_service = units::Seconds::of(2.0);  // rho = 2
  const auto a = analyze_sustained(w);
  EXPECT_FALSE(a.stable);
  EXPECT_FALSE(a.mean_latency.is_finite());
  // Producing 1 unit/s, completing 0.5/s: backlog grows at 0.5 units/s.
  EXPECT_NEAR(a.backlog_growth_per_second, 0.5, 1e-12);
}

TEST(AnalyzeSustained, ZeroServiceTimeTriviallyStable) {
  SustainedWorkload w;
  w.window = units::Seconds::of(1.0);
  w.mean_service = units::Seconds::of(0.0);
  const auto a = analyze_sustained(w);
  EXPECT_TRUE(a.stable);
  EXPECT_DOUBLE_EQ(a.mean_latency.seconds(), 0.0);
}

TEST(PipelinedServiceTime, SlowerStageDominates) {
  ModelParameters p;
  p.s_unit = units::Bytes::gigabytes(2.0);
  p.complexity = units::Complexity::flop_per_byte(17000.0);
  p.r_local = units::FlopsRate::teraflops(5.0);
  p.r_remote = units::FlopsRate::teraflops(50.0);
  p.bandwidth = units::DataRate::gigabits_per_second(25.0);
  p.alpha = 0.8;
  p.theta = 1.0;
  // transfer = 0.8 s, compute = 0.68 s -> transfer-bound.
  EXPECT_NEAR(pipelined_service_time(p).seconds(), 0.8, 1e-9);
  p.r_remote = units::FlopsRate::teraflops(20.0);  // compute = 1.7 s
  EXPECT_NEAR(pipelined_service_time(p).seconds(), 1.7, 1e-9);
  // theta scales the transfer stage.
  p.theta = 3.0;
  EXPECT_NEAR(pipelined_service_time(p).seconds(), 2.4, 1e-9);
}

TEST(MaxSustainableRate, ValidatesInput) {
  EXPECT_THROW((void)max_sustainable_rate(units::Seconds::of(0.0), 0.5, units::Seconds::of(1.0)),
               std::invalid_argument);
  EXPECT_THROW((void)max_sustainable_rate(units::Seconds::of(1.0), 0.5, units::Seconds::of(0.0)),
               std::invalid_argument);
}

TEST(MaxSustainableRate, ZeroWhenServiceExceedsDeadline) {
  EXPECT_DOUBLE_EQ(max_sustainable_rate(units::Seconds::of(2.0), 0.5,
                                        units::Seconds::of(1.0)),
                   0.0);
}

TEST(MaxSustainableRate, DeterministicServiceSaturatesLink) {
  // cv = 0: no queueing below saturation, so the rate approaches 1/service.
  const double rate =
      max_sustainable_rate(units::Seconds::of(0.5), 0.0, units::Seconds::of(1.0));
  EXPECT_NEAR(rate, 2.0, 0.01);
}

TEST(MaxSustainableRate, VariabilityCostsThroughput) {
  const units::Seconds service = units::Seconds::of(0.5);
  const units::Seconds deadline = units::Seconds::of(1.0);
  const double smooth = max_sustainable_rate(service, 0.0, deadline);
  const double bursty = max_sustainable_rate(service, 2.0, deadline);
  EXPECT_LT(bursty, smooth);
  EXPECT_GT(bursty, 0.0);
}

TEST(MaxSustainableRate, MeetsDeadlineAtReturnedRate) {
  const units::Seconds service = units::Seconds::of(0.4);
  const double cv = 1.5;
  const units::Seconds deadline = units::Seconds::of(2.0);
  const double rate = max_sustainable_rate(service, cv, deadline);
  ASSERT_GT(rate, 0.0);
  SustainedWorkload w;
  w.window = units::Seconds::of(1.0 / rate);
  w.mean_service = service;
  w.service_cv = cv;
  const auto a = analyze_sustained(w);
  EXPECT_TRUE(a.stable);
  EXPECT_LE(a.mean_latency.seconds(), deadline.seconds() * 1.001);
}

}  // namespace
}  // namespace sss::core
