// Tests that the workflow presets transcribe the paper's numbers faithfully.
#include "detector/facility.hpp"

#include <gtest/gtest.h>

namespace sss::detector {
namespace {

TEST(Facilities, FribDeleriaNumbers) {
  const DeleriaProfile d = deleria_profile();
  EXPECT_DOUBLE_EQ(d.input_rate.gbit_per_s(), 40.0);
  EXPECT_DOUBLE_EQ(d.event_stream.mbps(), 240.0);
  EXPECT_EQ(d.process_count, 100);
  // ~2 MB/s per compute process (Section 2.2.4).
  EXPECT_NEAR(d.per_process_rate().mbps(), 2.4, 0.5);
  EXPECT_DOUBLE_EQ(d.reduction, 0.975);
}

TEST(Table3Workflows, CoherentScattering) {
  const WorkflowProfile w = coherent_scattering();
  EXPECT_DOUBLE_EQ(w.throughput.gBps(), 2.0);
  EXPECT_DOUBLE_EQ(w.offline_analysis.tflop(), 34.0);
  // 1-second window accumulates 2 GB.
  EXPECT_DOUBLE_EQ(w.bytes_per_window(units::Seconds::of(1.0)).gb(), 2.0);
  // C = 34 TF / 2 GB = 17,000 FLOP/byte.
  EXPECT_DOUBLE_EQ(w.complexity().flop_per_byte(), 17000.0);
}

TEST(Table3Workflows, LiquidScattering) {
  const WorkflowProfile w = liquid_scattering();
  EXPECT_DOUBLE_EQ(w.throughput.gBps(), 4.0);
  // 4 GB/s = 32 Gbps: more than the 25 Gbps testbed link (the case study's
  // infeasibility).
  EXPECT_GT(w.throughput.gbit_per_s(), 25.0);
  EXPECT_DOUBLE_EQ(w.offline_analysis.tflop(), 20.0);
  EXPECT_DOUBLE_EQ(w.complexity().flop_per_byte(), 5000.0);
}

TEST(ApsScan, MatchesSection42) {
  const ScanWorkload scan = aps_scan(units::Seconds::of(0.033));
  EXPECT_EQ(scan.frame_count, 1440u);
  EXPECT_DOUBLE_EQ(scan.frame_size.bytes(), 2048.0 * 2048.0 * 2.0);
  // Exact: 12.08 GB; the paper rounds to "approximately 12.6 GB".
  EXPECT_NEAR(scan.total_bytes().gb(), 12.08, 0.01);
  EXPECT_NEAR(scan.generation_time().seconds(), 47.5, 0.1);
  const ScanWorkload slow = aps_scan(units::Seconds::of(0.33));
  EXPECT_NEAR(slow.generation_time().seconds(), 475.2, 0.1);
}

}  // namespace
}  // namespace sss::detector
