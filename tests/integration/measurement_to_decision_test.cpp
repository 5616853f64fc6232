// Integration: the paper's full methodology end to end —
// congestion sweep (simnet) -> calibration (core) -> tier decision (core).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/calibration.hpp"
#include "core/decision.hpp"
#include "core/report.hpp"
#include "core/sss_score.hpp"
#include "simnet/workload.hpp"

namespace sss {
namespace {

// Scaled-down testbed: 2.5 Gbps link, 40 MB transfers, 2-second runs; the
// same shape as Table 2 at a tenth of the byte volume.
std::vector<simnet::ExperimentResult> run_scaled_sweep() {
  std::vector<simnet::ExperimentResult> sweep;
  for (int c : {1, 2, 4, 6, 8}) {
    simnet::WorkloadConfig cfg;
    cfg.duration = units::Seconds::of(2.0);
    cfg.concurrency = c;
    cfg.parallel_flows = 2;
    cfg.transfer_size = units::Bytes::megabytes(40.0);
    cfg.mode = simnet::SpawnMode::kSimultaneousBatches;
    cfg.link.capacity = units::DataRate::gigabits_per_second(2.5);
    cfg.link.buffer = units::Bytes::megabytes(4.0);
    sweep.push_back(simnet::run_experiment(cfg));
  }
  return sweep;
}

class MeasurementToDecision : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { sweep_ = new auto(run_scaled_sweep()); }
  static void TearDownTestSuite() {
    delete sweep_;
    sweep_ = nullptr;
  }
  static std::vector<simnet::ExperimentResult>* sweep_;
};

std::vector<simnet::ExperimentResult>* MeasurementToDecision::sweep_ = nullptr;

TEST_F(MeasurementToDecision, SweepShowsCongestionKnee) {
  // Worst-case FCT must grow super-linearly with offered load: the ratio of
  // worst/first should far exceed the ratio of loads.
  const auto& sweep = *sweep_;
  const double low = sweep.front().t_worst_s();
  const double high = sweep.back().t_worst_s();
  ASSERT_GT(low, 0.0);
  EXPECT_GT(high / low, 3.0);
}

TEST_F(MeasurementToDecision, ProfileFeedsDecision) {
  const core::CongestionProfile profile = core::build_congestion_profile(*sweep_);

  // Operating point: 64 % utilization (the case study's coherent
  // scattering).  Unit: 32 MB of data per 100 ms window on this scaled
  // testbed (same 64 % sustained load).
  const units::Bytes window = units::Bytes::megabytes(20.0);
  const units::DataRate link = units::DataRate::gigabits_per_second(2.5);
  const units::Seconds worst = profile.worst_transfer_time(window, link, 0.64);
  EXPECT_GT(worst.seconds(), (window / link).seconds());

  core::DecisionInput input;
  input.params.s_unit = window;
  input.params.complexity = units::Complexity::flop_per_byte(1000.0);
  input.params.r_local = units::FlopsRate::gigaflops(50.0);
  input.params.r_remote = units::FlopsRate::gigaflops(500.0);
  input.params.bandwidth = link;
  input.params.alpha = 0.9;
  input.t_worst_transfer = worst;
  const auto tiers = core::tier_analysis(input);
  ASSERT_EQ(tiers.size(), 3u);
  // At minimum the quasi-real-time tier must be feasible on this setup.
  EXPECT_TRUE(tiers[2].streaming_feasible);
}

TEST_F(MeasurementToDecision, CalibrationProducesUsableParameters) {
  // Parameters from the measured profile at 50 % utilization: alpha is the
  // efficiency implied by the worst-case inflation there.
  const core::CongestionProfile profile = core::build_congestion_profile(*sweep_);
  core::DecisionInput input;
  input.params.s_unit = units::Bytes::megabytes(40.0);
  input.params.complexity = units::Complexity::flop_per_byte(100.0);
  input.params.r_local = units::FlopsRate::gigaflops(10.0);
  input.params.r_remote = units::FlopsRate::gigaflops(100.0);
  input.params.bandwidth = units::DataRate::gigabits_per_second(2.5);
  input.params.alpha = std::min(1.0, 1.0 / profile.sss_at(0.5));
  EXPECT_NO_THROW(input.params.validate());
  const core::Evaluation ev = core::evaluate(input);
  EXPECT_GT(ev.gain_streaming, 0.0);

  // The whole thing renders into a report without throwing.
  core::WorkflowReportInput report_in;
  report_in.workflow_name = "scaled integration workflow";
  report_in.decision.params = input.params;
  report_in.decision.t_worst_transfer =
      profile.worst_transfer_time(input.params.s_unit, input.params.bandwidth, 0.5);
  const std::string report = core::render_report(report_in);
  EXPECT_FALSE(report.empty());
}

TEST_F(MeasurementToDecision, RegimesOrderedByLoad) {
  const core::CongestionProfile profile = core::build_congestion_profile(*sweep_);
  const auto& pts = profile.points();
  // Classified regimes must be non-decreasing in load.
  int prev = -1;
  for (const auto& p : pts) {
    const int regime = static_cast<int>(core::classify_regime(p.sss));
    EXPECT_GE(regime, prev - 1);  // allow plateaus, forbid wild inversions
    prev = std::max(prev, regime);
  }
  // And the sweep must span at least two distinct regimes.
  const int first = static_cast<int>(core::classify_regime(pts.front().sss));
  const int last = static_cast<int>(core::classify_regime(pts.back().sss));
  EXPECT_GT(last, first);
}

}  // namespace
}  // namespace sss
