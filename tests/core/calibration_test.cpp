// Tests for measurement-to-parameter calibration.
#include "core/calibration.hpp"

#include <gtest/gtest.h>

namespace sss::core {
namespace {

CongestionPoint point(double util, double sss) {
  CongestionPoint p;
  p.utilization = util;
  p.sss = sss;
  p.t_theoretical_s = 0.16;
  p.t_worst_s = sss * 0.16;
  return p;
}

TEST(CongestionProfile, InterpolatesLinearly) {
  CongestionProfile profile({point(0.2, 1.2), point(0.6, 2.0), point(1.0, 30.0)});
  EXPECT_DOUBLE_EQ(profile.sss_at(0.2), 1.2);
  EXPECT_DOUBLE_EQ(profile.sss_at(0.6), 2.0);
  EXPECT_DOUBLE_EQ(profile.sss_at(0.4), 1.6);   // midpoint
  EXPECT_DOUBLE_EQ(profile.sss_at(0.8), 16.0);  // midpoint of steep segment
}

TEST(CongestionProfile, ClampsOutsideMeasuredRange) {
  CongestionProfile profile({point(0.2, 1.2), point(0.8, 10.0)});
  EXPECT_DOUBLE_EQ(profile.sss_at(0.0), 1.2);
  EXPECT_DOUBLE_EQ(profile.sss_at(1.5), 10.0);
}

TEST(CongestionProfile, SortsUnorderedPoints) {
  CongestionProfile profile({point(0.9, 9.0), point(0.1, 1.0)});
  EXPECT_DOUBLE_EQ(profile.sss_at(0.5), 5.0);
}

TEST(CongestionProfile, EmptyProfileThrows) {
  CongestionProfile profile;
  EXPECT_TRUE(profile.empty());
  EXPECT_THROW((void)profile.sss_at(0.5), std::logic_error);
  // worst_transfer_time rides on sss_at, so it shares the no-curve contract.
  EXPECT_THROW((void)profile.worst_transfer_time(
                   units::Bytes::gigabytes(1.0),
                   units::DataRate::gigabits_per_second(25.0), 0.5),
               std::logic_error);
}

TEST(CongestionProfile, SinglePointProfileIsTheConstantFunction) {
  CongestionProfile profile({point(0.5, 3.0)});
  for (double u : {0.0, 0.25, 0.5, 0.75, 2.0}) {
    EXPECT_DOUBLE_EQ(profile.sss_at(u), 3.0) << u;
  }
  const auto t = profile.worst_transfer_time(
      units::Bytes::gigabytes(1.0), units::DataRate::gigabits_per_second(8.0), 0.9);
  EXPECT_DOUBLE_EQ(t.seconds(), 3.0);  // 1 GB at 1 GB/s, SSS 3
}

TEST(CongestionProfile, DuplicateUtilizationContract) {
  // Stable sort keeps insertion order among duplicates: at the duplicated
  // utilization sss_at returns the FIRST duplicate's value; immediately
  // above it, interpolation continues from the LAST duplicate.
  CongestionProfile profile(
      {point(0.2, 1.0), point(0.6, 2.0), point(0.6, 4.0), point(1.0, 5.0)});
  ASSERT_EQ(profile.points().size(), 4u);
  EXPECT_DOUBLE_EQ(profile.points()[1].sss, 2.0);  // insertion order preserved
  EXPECT_DOUBLE_EQ(profile.points()[2].sss, 4.0);
  EXPECT_DOUBLE_EQ(profile.sss_at(0.6), 2.0);   // the first duplicate
  EXPECT_DOUBLE_EQ(profile.sss_at(0.8), 4.5);   // midpoint of (0.6, 4) -> (1, 5)
  EXPECT_DOUBLE_EQ(profile.sss_at(0.4), 1.5);   // midpoint of (0.2, 1) -> (0.6, 2)
}

TEST(CongestionProfile, DuplicatesAtTheEndsClampLikeSinglePoints) {
  CongestionProfile low({point(0.2, 1.0), point(0.2, 3.0), point(0.8, 5.0)});
  EXPECT_DOUBLE_EQ(low.sss_at(0.1), 1.0);  // clamp to the FIRST front duplicate
  CongestionProfile high({point(0.2, 1.0), point(0.8, 5.0), point(0.8, 7.0)});
  EXPECT_DOUBLE_EQ(high.sss_at(0.9), 7.0);  // clamp to the LAST back duplicate
}

TEST(CongestionProfile, WorstTransferTimeExtrapolatesLikeSection5) {
  // SSS 1.875 at 64 % utilization: a 2 GB window at 25 Gbps (0.64 s
  // theoretical) predicts 1.2 s worst case — the case-study number.
  CongestionProfile profile({point(0.64, 1.875), point(0.96, 6.25)});
  const auto t2gb = profile.worst_transfer_time(
      units::Bytes::gigabytes(2.0), units::DataRate::gigabits_per_second(25.0), 0.64);
  EXPECT_NEAR(t2gb.seconds(), 1.2, 1e-9);
  const auto t3gb = profile.worst_transfer_time(
      units::Bytes::gigabytes(3.0), units::DataRate::gigabits_per_second(25.0), 0.96);
  EXPECT_NEAR(t3gb.seconds(), 6.0, 1e-9);
}

simnet::ExperimentResult tiny_experiment(int concurrency) {
  simnet::WorkloadConfig cfg;
  cfg.duration = units::Seconds::of(1.0);
  cfg.concurrency = concurrency;
  cfg.parallel_flows = 2;
  cfg.transfer_size = units::Bytes::megabytes(40.0);
  cfg.mode = simnet::SpawnMode::kSimultaneousBatches;
  cfg.link.capacity = units::DataRate::gigabits_per_second(2.5);
  cfg.link.buffer = units::Bytes::megabytes(4.0);
  return simnet::run_experiment(cfg);
}

TEST(BuildCongestionProfile, FromRealSweep) {
  std::vector<simnet::ExperimentResult> sweep;
  for (int c : {1, 4, 7}) sweep.push_back(tiny_experiment(c));
  const CongestionProfile profile = build_congestion_profile(sweep);
  ASSERT_EQ(profile.points().size(), 3u);
  // SSS grows with load.
  EXPECT_LT(profile.points().front().sss, profile.points().back().sss);
  for (const auto& p : profile.points()) {
    EXPECT_GE(p.sss, 1.0);
    EXPECT_GT(p.t_theoretical_s, 0.0);
    EXPECT_EQ(p.parallel_flows, 2);
    // Simulated sweeps are pure streaming: no staging overhead.
    EXPECT_DOUBLE_EQ(p.t_io_s, 0.0);
  }
}

}  // namespace
}  // namespace sss::core
