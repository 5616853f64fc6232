// Tests for the decision framework, including the Section 5 case study.
#include "core/decision.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "detector/facility.hpp"

namespace sss::core {
namespace {

// Case-study configuration: coherent scattering (2 GB/s, 34 TF/s of work),
// evaluated over 1-second aggregation windows on the 25 Gbps testbed.
DecisionInput coherent_input() {
  DecisionInput in;
  in.params.s_unit = units::Bytes::gigabytes(2.0);
  in.params.complexity = units::Complexity::flop_per_byte(17000.0);  // 34 TF / 2 GB
  in.params.r_local = units::FlopsRate::teraflops(5.0);
  in.params.r_remote = units::FlopsRate::teraflops(50.0);
  in.params.bandwidth = units::DataRate::gigabits_per_second(25.0);
  in.params.alpha = 0.8;
  in.params.theta = 1.0;
  in.theta_file = 2.5;
  in.t_worst_transfer = units::Seconds::of(1.2);  // measured at 64 % util
  in.generation_rate = units::DataRate::gigabytes_per_second(2.0);
  return in;
}

TEST(StandardTiers, MatchSection5) {
  const auto tiers = standard_tiers();
  ASSERT_EQ(tiers.size(), 3u);
  EXPECT_DOUBLE_EQ(tiers[0].deadline.seconds(), 1.0);
  EXPECT_DOUBLE_EQ(tiers[1].deadline.seconds(), 10.0);
  EXPECT_DOUBLE_EQ(tiers[2].deadline.seconds(), 60.0);
}

TEST(Evaluate, RemoteStreamingWinsWhenRemoteIsFast) {
  const Evaluation ev = evaluate(coherent_input());
  // T_local = 34/5 = 6.8 s; T_pct = 0.8 + 0.68 = 1.48 s.
  EXPECT_NEAR(ev.t_local.seconds(), 6.8, 1e-9);
  EXPECT_NEAR(ev.t_pct_streaming.seconds(), 1.48, 1e-9);
  EXPECT_GT(ev.gain_streaming, 4.0);
  EXPECT_EQ(ev.best, ProcessingMode::kRemoteStreaming);
  EXPECT_FALSE(ev.link_saturated);
}

TEST(Evaluate, LocalWinsWhenRemoteIsSlow) {
  DecisionInput in = coherent_input();
  in.params.r_remote = units::FlopsRate::teraflops(5.0);  // r = 1: no compute gain
  const Evaluation ev = evaluate(in);
  EXPECT_EQ(ev.best, ProcessingMode::kLocal);
  EXPECT_LT(ev.gain_streaming, 1.0);
}

TEST(Evaluate, FileThetaMakesFileSlowerThanStreaming) {
  const Evaluation ev = evaluate(coherent_input());
  EXPECT_GT(ev.t_pct_file.seconds(), ev.t_pct_streaming.seconds());
  EXPECT_LT(ev.gain_file, ev.gain_streaming);
}

TEST(Evaluate, LinkSaturationDisqualifiesRemote) {
  // Liquid scattering: 4 GB/s = 32 Gbps > 25 Gbps (Section 5).
  DecisionInput in = coherent_input();
  in.params.s_unit = units::Bytes::gigabytes(4.0);
  in.generation_rate = units::DataRate::gigabytes_per_second(4.0);
  const Evaluation ev = evaluate(in);
  EXPECT_TRUE(ev.link_saturated);
  EXPECT_EQ(ev.best, ProcessingMode::kLocal);
}

TEST(Evaluate, TransferBasisPrefersMeasurement) {
  DecisionInput in = coherent_input();
  const Evaluation with_measurement = evaluate(in);
  EXPECT_DOUBLE_EQ(with_measurement.transfer_basis.seconds(), 1.2);
  in.t_worst_transfer.reset();
  const Evaluation model_only = evaluate(in);
  EXPECT_NEAR(model_only.transfer_basis.seconds(), 0.8, 1e-9);  // S/(alpha Bw)
}

TEST(TierAnalysis, CoherentScatteringMatchesCaseStudy) {
  // Section 5: at 64 % utilization the 2 GB window transfers in a worst
  // case of 1.2 s — inside Tier 2 with 8.8 s left for analysis.
  const auto tiers = tier_analysis(coherent_input());
  ASSERT_EQ(tiers.size(), 3u);

  // Tier 1 (<1 s): the 1.2 s worst-case transfer alone blows the deadline.
  EXPECT_FALSE(tiers[0].streaming_feasible);
  EXPECT_DOUBLE_EQ(tiers[0].streaming_compute_budget.seconds(), 0.0);
  EXPECT_TRUE(std::isinf(tiers[0].required_remote_rate.flop_per_s()));

  // Tier 2 (<10 s): 8.8 s of compute budget, needs 34 TF / 8.8 s ~ 3.9
  // TFLOPS of remote compute.
  EXPECT_TRUE(tiers[1].streaming_feasible);
  EXPECT_NEAR(tiers[1].streaming_compute_budget.seconds(), 8.8, 1e-9);
  EXPECT_NEAR(tiers[1].required_remote_rate.tflops(), 34.0 / 8.8, 1e-6);

  // Tier 3 (<60 s): easily feasible.
  EXPECT_TRUE(tiers[2].streaming_feasible);
}

TEST(TierAnalysis, LocalFeasibilityFollowsTLocal) {
  DecisionInput in = coherent_input();  // T_local = 6.8 s
  const auto tiers = tier_analysis(in);
  EXPECT_FALSE(tiers[0].local_feasible);  // > 1 s
  EXPECT_TRUE(tiers[1].local_feasible);   // < 10 s
  EXPECT_TRUE(tiers[2].local_feasible);
}

TEST(TierAnalysis, CaseStudyLocalPreferenceRule) {
  // "If the instrument facility has the capacity to perform the analysis
  // locally within less than 1.2 seconds, then local processing is favored."
  DecisionInput in = coherent_input();
  in.params.r_local = units::FlopsRate::teraflops(34.0 / 1.0);  // T_local = 1 s
  const Evaluation ev = evaluate(in);
  // T_pct(streaming) = 0.8 + 34/50 = 1.48 s > T_local = 1.0 s.
  EXPECT_EQ(ev.best, ProcessingMode::kLocal);
}

TEST(TierAnalysis, SaturatedLinkBlocksAllRemoteTiers) {
  DecisionInput in = coherent_input();
  in.generation_rate = units::DataRate::gigabytes_per_second(4.0);
  const auto tiers = tier_analysis(in);
  for (const auto& tf : tiers) {
    EXPECT_FALSE(tf.streaming_feasible);
    EXPECT_FALSE(tf.file_feasible);
  }
}

TEST(TierAnalysis, CustomTierList) {
  const std::vector<Tier> custom{{"sub-100ms", units::Seconds::millis(100.0)}};
  const auto tiers = tier_analysis(coherent_input(), custom);
  ASSERT_EQ(tiers.size(), 1u);
  EXPECT_FALSE(tiers[0].streaming_feasible);
  EXPECT_FALSE(tiers[0].local_feasible);
}

TEST(ProcessingModeNames, Render) {
  EXPECT_STREQ(to_string(ProcessingMode::kLocal), "local");
  EXPECT_STREQ(to_string(ProcessingMode::kRemoteStreaming), "remote-streaming");
  EXPECT_STREQ(to_string(ProcessingMode::kRemoteFileBased), "remote-file-based");
}

TEST(WithContendedPath, ComposesPerHopOverheadAndKeepsBandwidth) {
  ModelParameters params;
  params.alpha = 0.8;  // eps = 1/0.8 - 1 = 0.25 per hop
  params.bandwidth = units::DataRate::gigabits_per_second(25.0);
  for (const std::size_t hops : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_DOUBLE_EQ(with_contended_path(params, hops).alpha, 0.8) << hops;
  }
  EXPECT_DOUBLE_EQ(with_contended_path(params, 4).alpha, 0.5);   // 1 / (1 + 4 * 0.25)
  EXPECT_DOUBLE_EQ(with_contended_path(params, 64).alpha, 1.0 / 17.0);
  const ModelParameters deep = with_contended_path(params, 4);
  EXPECT_EQ(deep.bandwidth.bps(), params.bandwidth.bps());
  EXPECT_EQ(deep.theta, params.theta);
}

}  // namespace
}  // namespace sss::core
