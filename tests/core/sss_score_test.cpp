// Tests for the Streaming Speed Score and regime classification.
#include "core/sss_score.hpp"

#include <gtest/gtest.h>

namespace sss::core {
namespace {

TEST(StreamingSpeedScore, Eq11PaperExample) {
  // Fig. 2(a): 0.5 GB at 25 Gbps -> 0.16 s theoretical; >5 s observed at
  // high utilization -> SSS > 31.
  const auto score = compute_sss(units::Seconds::of(5.0), units::Bytes::gigabytes(0.5),
                                 units::DataRate::gigabits_per_second(25.0));
  EXPECT_NEAR(score.t_theoretical_s, 0.16, 1e-12);
  EXPECT_NEAR(score.value(), 31.25, 1e-9);
}

TEST(StreamingSpeedScore, IdealNetworkScoresOne) {
  const auto score = compute_sss(units::Seconds::of(0.16), units::Bytes::gigabytes(0.5),
                                 units::DataRate::gigabits_per_second(25.0));
  EXPECT_NEAR(score.value(), 1.0, 1e-9);
}

TEST(StreamingSpeedScore, ScheduledTransfersScoreNearOne) {
  // Fig. 2(b): 0.2 s measured vs 0.16 s theoretical -> SSS = 1.25.
  const auto score = compute_sss(units::Seconds::of(0.2), units::Bytes::gigabytes(0.5),
                                 units::DataRate::gigabits_per_second(25.0));
  EXPECT_NEAR(score.value(), 1.25, 1e-9);
}

TEST(StreamingSpeedScore, CaseStudyExtrapolations) {
  // Section 5: 2 GB window at 25 Gbps = 0.64 s theoretical; 1.2 s worst
  // case -> SSS 1.875.  3 GB window = 0.96 s; 6 s worst -> SSS 6.25.
  const auto coherent = compute_sss(units::Seconds::of(1.2), units::Bytes::gigabytes(2.0),
                                    units::DataRate::gigabits_per_second(25.0));
  EXPECT_NEAR(coherent.value(), 1.875, 1e-9);
  const auto liquid = compute_sss(units::Seconds::of(6.0), units::Bytes::gigabytes(3.0),
                                  units::DataRate::gigabits_per_second(25.0));
  EXPECT_NEAR(liquid.value(), 6.25, 1e-9);
}

TEST(StreamingSpeedScore, InputValidation) {
  EXPECT_THROW((void)compute_sss(units::Seconds::of(-1.0), units::Bytes::gigabytes(1.0),
                           units::DataRate::gigabits_per_second(1.0)),
               std::invalid_argument);
  EXPECT_THROW((void)compute_sss(units::Seconds::of(1.0), units::Bytes::of(0.0),
                           units::DataRate::gigabits_per_second(1.0)),
               std::invalid_argument);
  EXPECT_THROW((void)compute_sss(units::Seconds::of(1.0), units::Bytes::gigabytes(1.0),
                           units::DataRate::bytes_per_second(0.0)),
               std::invalid_argument);
}

TEST(RegimeClassification, DefaultThresholds) {
  EXPECT_EQ(classify_regime(1.0), CongestionRegime::kLow);
  EXPECT_EQ(classify_regime(5.99), CongestionRegime::kLow);
  EXPECT_EQ(classify_regime(6.0), CongestionRegime::kModerate);
  EXPECT_EQ(classify_regime(18.9), CongestionRegime::kModerate);
  EXPECT_EQ(classify_regime(19.0), CongestionRegime::kSevere);
  EXPECT_EQ(classify_regime(100.0), CongestionRegime::kSevere);
}

TEST(RegimeClassification, PaperNarrativeMapping) {
  // Fig. 2(a)'s three regimes for 0.5 GB / 0.16 s theoretical: sub-second
  // worst cases are low; 2-3 s transfers are moderate; >5 s is severe.
  auto sss_of = [](double t_worst) { return t_worst / 0.16; };
  EXPECT_EQ(classify_regime(sss_of(0.3)), CongestionRegime::kLow);
  EXPECT_EQ(classify_regime(sss_of(2.5)), CongestionRegime::kModerate);
  EXPECT_EQ(classify_regime(sss_of(5.5)), CongestionRegime::kSevere);
}

TEST(RegimeClassification, CustomThresholdsAndValidation) {
  RegimeThresholds strict{2.0, 4.0};
  EXPECT_EQ(classify_regime(1.5, strict), CongestionRegime::kLow);
  EXPECT_EQ(classify_regime(3.0, strict), CongestionRegime::kModerate);
  EXPECT_EQ(classify_regime(4.0, strict), CongestionRegime::kSevere);
  EXPECT_THROW((void)classify_regime(1.0, RegimeThresholds{0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW((void)classify_regime(1.0, RegimeThresholds{5.0, 5.0}), std::invalid_argument);
}

TEST(RegimeNames, Render) {
  EXPECT_STREQ(to_string(CongestionRegime::kLow), "low");
  EXPECT_STREQ(to_string(CongestionRegime::kModerate), "moderate");
  EXPECT_STREQ(to_string(CongestionRegime::kSevere), "severe");
}

}  // namespace
}  // namespace sss::core
