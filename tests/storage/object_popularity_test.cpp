// object_popularity_test.cpp — the Zipf object-popularity knob for the
// storage-layer workload generator: weight/partition/sampler math, the
// bit-identity of the skew-0 path with the historical even split, and the
// `zipf_skew` binding on the shared override table.

#include "storage/object_popularity.hpp"

#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "detector/facility.hpp"
#include "scenario/overrides.hpp"
#include "simnet/workload.hpp"
#include "storage/staged_transfer.hpp"
#include "units/units.hpp"

namespace sss::storage {
namespace {

TEST(ZipfWeights, UniformAtSkewZero) {
  const auto weights = zipf_weights(8, 0.0);
  ASSERT_EQ(weights.size(), 8u);
  for (double w : weights) EXPECT_DOUBLE_EQ(w, 1.0 / 8.0);
}

TEST(ZipfWeights, NormalizedAndDecreasing) {
  const auto weights = zipf_weights(100, 1.2);
  double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  for (std::size_t k = 1; k < weights.size(); ++k) {
    EXPECT_LT(weights[k], weights[k - 1]) << "rank " << k;
  }
  // Classic Zipf shape: rank 1 carries ~w0 / 2^s.
  EXPECT_NEAR(weights[1] / weights[0], std::pow(2.0, -1.2), 1e-12);
}

TEST(ZipfWeights, RejectsDegenerateArguments) {
  EXPECT_THROW((void)zipf_weights(0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)zipf_weights(4, -0.5), std::invalid_argument);
}

TEST(ZipfPartition, SkewZeroReproducesHistoricalEvenSplit) {
  // The staged-transfer generator relied on base + (k < remainder ? 1 : 0);
  // the skew-0 path must be that exact layout.
  for (std::uint64_t items : {1440ull, 1441ull, 7ull}) {
    for (std::uint64_t bins : {1ull, 7ull, 10ull} ) {
      if (items < bins) continue;
      const auto parts = zipf_partition(items, bins, 0.0);
      const std::uint64_t base = items / bins;
      const std::uint64_t remainder = items % bins;
      ASSERT_EQ(parts.size(), bins);
      for (std::uint64_t k = 0; k < bins; ++k) {
        EXPECT_EQ(parts[k], base + (k < remainder ? 1 : 0))
            << "items=" << items << " bins=" << bins << " k=" << k;
      }
    }
  }
}

TEST(ZipfPartition, ConservesTotalAndKeepsEveryBinNonEmpty) {
  for (double s : {0.5, 0.99, 1.5, 3.0}) {
    const auto parts = zipf_partition(1440, 144, s);
    const std::uint64_t total = std::accumulate(parts.begin(), parts.end(), 0ull);
    EXPECT_EQ(total, 1440u) << "s=" << s;
    for (std::uint64_t p : parts) EXPECT_GE(p, 1u) << "s=" << s;
    // Heavier skew concentrates the head; the layout is rank-monotone.
    EXPECT_GE(parts.front(), parts.back()) << "s=" << s;
  }
  // Strong skew: the hottest object holds a clear majority of the spare mass.
  const auto heavy = zipf_partition(1000, 10, 3.0);
  EXPECT_GT(heavy[0], 800u);
}

TEST(ZipfPartition, RejectsMoreBinsThanItems) {
  EXPECT_THROW((void)zipf_partition(3, 4, 1.0), std::invalid_argument);
  EXPECT_THROW((void)zipf_partition(5, 0, 1.0), std::invalid_argument);
}

TEST(StagedTransfer, SkewZeroIsBitIdenticalToHistoricalTimeline) {
  const auto scan = detector::aps_scan(units::Seconds::of(0.33));
  StagedTransferConfig config;  // default skew 0
  const StagedTimeline timeline = simulate_staged(config, scan, 144);

  StagedTransferConfig explicit_zero = config;
  explicit_zero.object_popularity_skew = 0.0;
  const StagedTimeline again = simulate_staged(explicit_zero, scan, 144);
  ASSERT_EQ(timeline.files.size(), again.files.size());
  EXPECT_EQ(timeline.total_s, again.total_s);
  for (std::size_t i = 0; i < timeline.files.size(); ++i) {
    EXPECT_EQ(timeline.files[i].frame_begin, again.files[i].frame_begin);
    EXPECT_EQ(timeline.files[i].frame_end, again.files[i].frame_end);
    EXPECT_EQ(timeline.files[i].landed_at_s, again.files[i].landed_at_s);
  }
}

TEST(StagedTransfer, SkewedPopularityChangesTheTimelineButConservesFrames) {
  const auto scan = detector::aps_scan(units::Seconds::of(0.33));
  StagedTransferConfig uniform;
  StagedTransferConfig skewed;
  skewed.object_popularity_skew = 1.2;

  const StagedTimeline base = simulate_staged(uniform, scan, 144);
  const StagedTimeline zipf = simulate_staged(skewed, scan, 144);
  ASSERT_EQ(zipf.files.size(), 144u);

  std::uint64_t frames = 0;
  double bytes = 0.0;
  for (const auto& ev : zipf.files) {
    frames += ev.frame_end - ev.frame_begin;
    bytes += ev.bytes;
  }
  EXPECT_EQ(frames, scan.frame_count);
  EXPECT_NEAR(bytes, scan.total_bytes().bytes(), 1.0);
  // The elephant head outweighs the uniform share; the timeline moved.
  EXPECT_GT(zipf.files.front().bytes, base.files.front().bytes);
  EXPECT_NE(zipf.total_s, base.total_s);
  EXPECT_GT(zipf.total_s, 0.0);
}

TEST(Overrides, ZipfSkewRidesTheBindingTable) {
  simnet::WorkloadConfig config;
  EXPECT_FALSE(scenario::apply_param_override(config, "zipf_skew=1.3"));
  EXPECT_DOUBLE_EQ(config.storage.zipf_skew, 1.3);
  EXPECT_THROW((void)scenario::apply_param_override(config, "zipf_skew=-1"),
               std::invalid_argument);
  EXPECT_THROW((void)scenario::apply_param_override(config, "zipf_skew=abc"),
               std::invalid_argument);
}

}  // namespace
}  // namespace sss::storage
