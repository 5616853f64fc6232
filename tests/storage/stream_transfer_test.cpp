// Tests for the streaming transfer timeline (the Fig. 1(b) path).
#include "storage/stream_transfer.hpp"

#include <gtest/gtest.h>

#include "storage/staged_transfer.hpp"

namespace sss::storage {
namespace {

detector::ScanWorkload scan_with(double interval_s, std::uint64_t frames = 100) {
  detector::ScanWorkload scan;
  scan.frame_count = frames;
  scan.frame_size = units::Bytes::megabytes(8.0);
  scan.frame_interval = units::Seconds::of(interval_s);
  return scan;
}

TEST(StreamTransferConfig, Validation) {
  StreamTransferConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.efficiency = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = StreamTransferConfig{};
  cfg.efficiency = 1.2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = StreamTransferConfig{};
  cfg.wan_bandwidth = units::DataRate::bytes_per_second(0.0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = StreamTransferConfig{};
  cfg.per_frame_overhead = units::Seconds::of(-1.0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SimulateStream, GenerationBoundWhenWanIsFast) {
  // 8 MB every 50 ms = 160 MB/s against a 2.8 GB/s effective WAN: the
  // stream finishes just after the last frame is generated.
  StreamTransferConfig cfg;
  const auto scan = scan_with(0.05);
  const auto t = simulate_stream(cfg, scan);
  EXPECT_NEAR(t.generation_done_s, 5.0, 1e-9);
  EXPECT_GT(t.total_s, t.generation_done_s);
  EXPECT_LT(t.total_s, t.generation_done_s + 0.6);  // setup + last frame tail
}

TEST(SimulateStream, TransferBoundWhenWanIsSlow) {
  StreamTransferConfig cfg;
  cfg.wan_bandwidth = units::DataRate::megabytes_per_second(80.0);
  cfg.efficiency = 1.0;
  const auto scan = scan_with(0.05);  // generates 160 MB/s > 80 MB/s WAN
  const auto t = simulate_stream(cfg, scan);
  // 800 MB at 80 MB/s = 10 s, twice the generation time.
  EXPECT_GT(t.total_s, 9.9);
  // Backlog builds: the last frame lands long after it was generated.
  EXPECT_GT(t.total_s - t.generation_done_s, 1.0);
}

TEST(SimulateStream, CompletionNeverBelowEitherBound) {
  for (double interval : {0.001, 0.01, 0.1}) {
    StreamTransferConfig cfg;
    const auto scan = scan_with(interval);
    const auto t = simulate_stream(cfg, scan);
    EXPECT_GE(t.total_s, t.generation_done_s);
    EXPECT_GE(t.total_s, t.pure_wan_transfer_s);
  }
}

TEST(SimulateStream, OverlapFractionHighAtHighRates) {
  StreamTransferConfig cfg;
  // Fast WAN, slow generation: nearly all transfer time hides under
  // generation.
  const auto t = simulate_stream(cfg, scan_with(0.1));
  EXPECT_LT(t.total_s - t.generation_done_s, 0.1 * t.pure_wan_transfer_s);
}

TEST(SimulateStream, ThetaNearOneWhenTransferBound) {
  StreamTransferConfig cfg;
  cfg.wan_bandwidth = units::DataRate::megabytes_per_second(80.0);
  cfg.efficiency = 1.0;
  cfg.connection_setup = units::Seconds::of(0.0);
  cfg.per_frame_overhead = units::Seconds::of(0.0);
  const auto scan = scan_with(0.0001);  // instant generation
  const auto t = simulate_stream(cfg, scan);
  EXPECT_NEAR(t.theta(), 1.0, 0.01);
}

TEST(StreamVsStaged, StreamingWinsAtHighFrameRates) {
  // The Fig. 4 headline at test scale: streaming beats every file-based
  // aggregation level when frames come fast.
  StreamTransferConfig stream_cfg;
  StagedTransferConfig staged_cfg;
  const auto scan = scan_with(0.01);
  const double stream_total = simulate_stream(stream_cfg, scan).total_s;
  for (std::uint64_t file_count : {1u, 10u, 100u}) {
    const double staged_total = simulate_staged(staged_cfg, scan, file_count).total_s;
    EXPECT_LT(stream_total, staged_total) << "file_count " << file_count;
  }
}

TEST(StreamVsStaged, FileBasedCompetitiveAtLowRatesWithAggregation) {
  // At slow generation the completion is dominated by generation for both
  // paths; aggregated file transfer is within a modest factor of streaming.
  StreamTransferConfig stream_cfg;
  StagedTransferConfig staged_cfg;
  const auto scan = scan_with(0.5);  // 50 s of generation
  const double stream_total = simulate_stream(stream_cfg, scan).total_s;
  const double staged_total = simulate_staged(staged_cfg, scan, 1).total_s;
  EXPECT_LT(staged_total / stream_total, 1.3);
}

}  // namespace
}  // namespace sss::storage
