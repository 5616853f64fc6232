// End-to-end tests for the threaded file-based pipeline and its comparison
// against the streaming pipeline.
#include "pipeline/file_pipeline.hpp"

#include <gtest/gtest.h>

#include "pipeline/streaming_pipeline.hpp"

namespace sss::pipeline {
namespace {

FilePipelineConfig small_config(std::uint64_t frames = 24, std::uint64_t files = 4,
                                std::size_t frame_bytes = 32 * 1024) {
  FilePipelineConfig cfg;
  cfg.scan.frame_count = frames;
  cfg.scan.frame_size = units::Bytes::of(static_cast<double>(frame_bytes));
  cfg.scan.frame_interval = units::Seconds::millis(1.0);
  cfg.file_count = files;
  // Shrink simulated I/O latencies so tests stay fast on a real clock.
  cfg.source_pfs.metadata_latency = units::Seconds::micros(200.0);
  cfg.source_pfs.open_close_latency = units::Seconds::micros(100.0);
  cfg.dest_pfs.metadata_latency = units::Seconds::micros(300.0);
  cfg.dest_pfs.open_close_latency = units::Seconds::micros(100.0);
  cfg.per_file_wan_overhead = units::Seconds::micros(500.0);
  cfg.wan_bandwidth = units::DataRate::gigabytes_per_second(1.0);
  cfg.compute_threads = 2;
  cfg.pace_producer = false;
  return cfg;
}

TEST(FilePipeline, RejectsBadFileCount) {
  SystemClock clock;
  auto cfg = small_config();
  cfg.file_count = 0;
  EXPECT_THROW((void)run_file_pipeline(cfg, clock), std::invalid_argument);
  cfg.file_count = cfg.scan.frame_count + 1;
  EXPECT_THROW((void)run_file_pipeline(cfg, clock), std::invalid_argument);
}

TEST(FilePipeline, AllFramesArriveIntact) {
  SystemClock clock;
  const auto cfg = small_config();
  const auto report = run_file_pipeline(cfg, clock);
  EXPECT_TRUE(report.complete_and_intact(cfg.scan.frame_count));
  EXPECT_EQ(report.files_written, 4u);
  EXPECT_EQ(report.files_transferred, 4u);
  EXPECT_EQ(report.frames_processed, 24u);
}

TEST(FilePipeline, SingleAggregatedFile) {
  SystemClock clock;
  const auto cfg = small_config(24, 1);
  const auto report = run_file_pipeline(cfg, clock);
  EXPECT_TRUE(report.complete_and_intact(cfg.scan.frame_count));
  EXPECT_EQ(report.files_written, 1u);
}

TEST(FilePipeline, OneFilePerFrame) {
  SystemClock clock;
  const auto cfg = small_config(24, 24);
  const auto report = run_file_pipeline(cfg, clock);
  EXPECT_TRUE(report.complete_and_intact(cfg.scan.frame_count));
  EXPECT_EQ(report.files_written, 24u);
}

TEST(FilePipeline, UnevenFramePartition) {
  SystemClock clock;
  const auto cfg = small_config(25, 4);  // 25 frames over 4 files: 7/6/6/6
  const auto report = run_file_pipeline(cfg, clock);
  EXPECT_TRUE(report.complete_and_intact(25));
  EXPECT_EQ(report.files_written, 4u);
}

TEST(FilePipeline, StageOrderingIsCausal) {
  SystemClock clock;
  const auto report = run_file_pipeline(small_config(), clock);
  EXPECT_LE(report.staging.first_item_s, report.transfer.last_item_s);
  EXPECT_LE(report.transfer.first_item_s, report.compute.last_item_s);
  EXPECT_GT(report.total_wall_s, 0.0);
}

TEST(FilePipeline, MoreFilesMoreOverhead) {
  // Per-file costs make 24 files measurably slower than 2 files for the
  // same data — the Fig. 4 small-file penalty, live.
  SystemClock clock;
  auto few = small_config(24, 2);
  auto many = small_config(24, 24);
  // Amplify per-file costs so the difference dominates scheduling noise.
  for (auto* cfg : {&few, &many}) {
    cfg->per_file_wan_overhead = units::Seconds::millis(10.0);
    cfg->source_pfs.metadata_latency = units::Seconds::millis(5.0);
  }
  const double t_few = run_file_pipeline(few, clock).total_wall_s;
  const double t_many = run_file_pipeline(many, clock).total_wall_s;
  EXPECT_GT(t_many, t_few * 1.5);
}

TEST(FileVsStreaming, StreamingFasterAtSameWorkload) {
  // The live counterpart of Fig. 4's high-rate comparison: identical scan,
  // identical channel rate; file path pays staging + per-file + read costs.
  SystemClock clock;
  FilePipelineConfig file_cfg = small_config(24, 24);
  file_cfg.per_file_wan_overhead = units::Seconds::millis(5.0);
  file_cfg.source_pfs.metadata_latency = units::Seconds::millis(2.0);

  StreamingPipelineConfig stream_cfg;
  stream_cfg.scan = file_cfg.scan;
  stream_cfg.channel.bandwidth = file_cfg.wan_bandwidth;
  stream_cfg.compute_threads = file_cfg.compute_threads;
  stream_cfg.pace_producer = false;

  const auto file_report = run_file_pipeline(file_cfg, clock);
  const auto stream_report = run_streaming_pipeline(stream_cfg, clock);
  ASSERT_TRUE(file_report.complete_and_intact(24));
  ASSERT_TRUE(stream_report.complete_and_intact(24));
  EXPECT_LT(stream_report.total_wall_s, file_report.total_wall_s);
  // Both paths deliver byte-identical data.
  EXPECT_EQ(file_report.producer_checksum, stream_report.producer_checksum);
}

}  // namespace
}  // namespace sss::pipeline
