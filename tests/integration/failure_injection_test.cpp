// Failure injection: pathological configurations must degrade loudly but
// safely — censored records, severe regimes, saturated verdicts — never
// hangs, crashes, or silently optimistic answers.
#include <gtest/gtest.h>

#include "core/calibration.hpp"
#include "core/decision.hpp"
#include "core/sss_score.hpp"
#include "simnet/workload.hpp"

namespace sss {
namespace {

TEST(FailureInjection, NearZeroBufferStillCompletesOrCensors) {
  // A 20 KB buffer on a shared link is a loss storm; the experiment must
  // terminate and every record must be either complete or censored at the
  // drain deadline.
  simnet::WorkloadConfig cfg;
  cfg.duration = units::Seconds::of(1.0);
  cfg.concurrency = 4;
  cfg.parallel_flows = 2;
  cfg.transfer_size = units::Bytes::megabytes(10.0);
  cfg.link.capacity = units::DataRate::gigabits_per_second(1.0);
  cfg.link.buffer = units::Bytes::kilobytes(20.0);
  cfg.drain_timeout = units::Seconds::of(120.0);
  cfg.mode = simnet::SpawnMode::kSimultaneousBatches;

  const auto result = simnet::run_experiment(cfg);
  EXPECT_EQ(result.metrics.clients.size(), 4u);
  for (const auto& c : result.metrics.clients) {
    EXPECT_GT(c.end_s, c.start_s);
  }
  // Loss must be visible in the metrics, not smoothed away.
  EXPECT_GT(result.metrics.loss_rate, 0.0);
  EXPECT_GT(result.metrics.total_retransmits, 0u);
}

TEST(FailureInjection, TinyDrainTimeoutProducesCensoredRecords) {
  simnet::WorkloadConfig cfg;
  cfg.duration = units::Seconds::of(1.0);
  cfg.concurrency = 6;
  cfg.parallel_flows = 2;
  cfg.transfer_size = units::Bytes::megabytes(50.0);
  cfg.link.capacity = units::DataRate::gigabits_per_second(1.0);  // hopeless overload
  cfg.drain_timeout = units::Seconds::of(0.5);
  cfg.mode = simnet::SpawnMode::kSimultaneousBatches;

  const auto result = simnet::run_experiment(cfg);
  EXPECT_TRUE(result.metrics.any_censored());
  // Censored end times sit at the deadline, not at fantasy values.
  for (const auto& c : result.metrics.clients) {
    if (c.censored) {
      EXPECT_NEAR(c.end_s, 1.5, 1e-6);
    }
  }
}

TEST(FailureInjection, SaturatedWorkflowNeverRecommendedRemote) {
  // Sweep generation rates across the link capacity boundary: every
  // saturated case must fall back to local.
  for (double gbps : {20.0, 24.9, 25.1, 32.0, 100.0}) {
    core::DecisionInput in;
    in.params.s_unit = units::Bytes::gigabytes(1.0);
    in.params.complexity = units::Complexity::flop_per_byte(100.0);
    in.params.r_local = units::FlopsRate::teraflops(1.0);
    in.params.r_remote = units::FlopsRate::teraflops(100.0);
    in.params.bandwidth = units::DataRate::gigabits_per_second(25.0);
    in.params.alpha = 1.0;
    in.generation_rate = units::DataRate::gigabits_per_second(gbps);
    const auto ev = core::evaluate(in);
    if (gbps > 25.0) {
      EXPECT_TRUE(ev.link_saturated) << gbps;
      EXPECT_EQ(ev.best, core::ProcessingMode::kLocal) << gbps;
    } else {
      EXPECT_FALSE(ev.link_saturated) << gbps;
    }
  }
}

TEST(FailureInjection, ExtremeSssClassifiedSevere) {
  // An order-of-magnitude-plus inflation (the paper's ">10x") must land in
  // the severe regime under default thresholds.
  const auto score = core::compute_sss(units::Seconds::of(5.0),
                                       units::Bytes::gigabytes(0.5),
                                       units::DataRate::gigabits_per_second(25.0));
  EXPECT_GT(score.value(), 10.0);
  EXPECT_EQ(core::classify_regime(score.value()), core::CongestionRegime::kSevere);
}

TEST(FailureInjection, CensoredSweepStillCalibrates) {
  // A sweep containing censored (overloaded) cells must still produce a
  // usable monotone profile — the censored point is a lower bound, which is
  // the conservative direction for feasibility decisions.
  std::vector<simnet::ExperimentResult> sweep;
  for (int c : {1, 8}) {
    simnet::WorkloadConfig cfg;
    cfg.duration = units::Seconds::of(1.0);
    cfg.concurrency = c;
    cfg.parallel_flows = 2;
    cfg.transfer_size = units::Bytes::megabytes(30.0);
    cfg.link.capacity = units::DataRate::gigabits_per_second(1.0);
    cfg.drain_timeout = units::Seconds::of(c == 8 ? 2.0 : 60.0);
    cfg.mode = simnet::SpawnMode::kSimultaneousBatches;
    sweep.push_back(simnet::run_experiment(cfg));
  }
  const auto profile = core::build_congestion_profile(sweep);
  EXPECT_GT(profile.points().back().sss, profile.points().front().sss);
}

TEST(FailureInjection, ZeroWorkWorkflowDegeneratesGracefully) {
  // C = 0 (pure data relocation): T_local = 0, remote can never win, and
  // nothing divides by zero.
  core::DecisionInput in;
  in.params.s_unit = units::Bytes::gigabytes(1.0);
  in.params.complexity = units::Complexity::flop_per_byte(0.0);
  const auto ev = core::evaluate(in);
  EXPECT_DOUBLE_EQ(ev.t_local.seconds(), 0.0);
  EXPECT_EQ(ev.best, core::ProcessingMode::kLocal);
  const auto tiers = core::tier_analysis(in);
  for (const auto& t : tiers) EXPECT_TRUE(t.local_feasible);
}

}  // namespace
}  // namespace sss
