// Tests for the staged (file-based) transfer timeline.
#include "storage/staged_transfer.hpp"

#include <gtest/gtest.h>

#include "detector/facility.hpp"

namespace sss::storage {
namespace {

detector::ScanWorkload tiny_scan(double interval_s = 0.01) {
  detector::ScanWorkload scan;
  scan.frame_count = 100;
  scan.frame_size = units::Bytes::megabytes(8.0);
  scan.frame_interval = units::Seconds::of(interval_s);
  return scan;
}

TEST(SimulateStaged, RejectsBadFileCount) {
  StagedTransferConfig cfg;
  EXPECT_THROW(simulate_staged(cfg, tiny_scan(), 0), std::invalid_argument);
  EXPECT_THROW(simulate_staged(cfg, tiny_scan(), 101), std::invalid_argument);
}

TEST(SimulateStaged, FilePartitionCoversAllFrames) {
  StagedTransferConfig cfg;
  for (std::uint64_t file_count : {1u, 3u, 7u, 100u}) {
    const auto t = simulate_staged(cfg, tiny_scan(), file_count);
    ASSERT_EQ(t.files.size(), file_count);
    std::uint64_t covered = 0;
    double bytes = 0.0;
    for (const auto& f : t.files) {
      EXPECT_EQ(f.frame_begin, covered);
      covered = f.frame_end;
      bytes += f.bytes;
    }
    EXPECT_EQ(covered, 100u);
    EXPECT_DOUBLE_EQ(bytes, tiny_scan().total_bytes().bytes());
  }
}

TEST(SimulateStaged, TimelineIsCausallyOrdered) {
  StagedTransferConfig cfg;
  const auto t = simulate_staged(cfg, tiny_scan(), 10);
  double prev_landed = 0.0;
  for (const auto& f : t.files) {
    EXPECT_LE(f.staged_at_s, t.staging_done_s);
    EXPECT_GE(f.transfer_start_s, f.staged_at_s);      // can't ship before staged
    EXPECT_GT(f.landed_at_s, f.transfer_start_s);
    EXPECT_GE(f.transfer_start_s, prev_landed);        // sequential WAN session
    prev_landed = f.landed_at_s;
  }
  EXPECT_GE(t.transfer_done_s, t.staging_done_s - 1e-9);
  EXPECT_GE(t.read_done_s, t.transfer_done_s);
  EXPECT_DOUBLE_EQ(t.total_s, t.read_done_s);
}

TEST(SimulateStaged, CompletionNeverFasterThanPureTransfer) {
  StagedTransferConfig cfg;
  for (std::uint64_t file_count : {1u, 10u, 100u}) {
    const auto t = simulate_staged(cfg, tiny_scan(), file_count);
    EXPECT_GT(t.total_s, t.pure_wan_transfer_s);
    EXPECT_GE(t.theta(), 1.0);
  }
}

TEST(SimulateStaged, ManySmallFilesSlowerThanFewLarge) {
  // The Fig. 4 ordering at test scale: 100 files > 10 files > 1 file.
  StagedTransferConfig cfg;
  const auto scan = tiny_scan(0.001);  // fast generation isolates file effects
  const double t1 = simulate_staged(cfg, scan, 1).total_s;
  const double t10 = simulate_staged(cfg, scan, 10).total_s;
  const double t100 = simulate_staged(cfg, scan, 100).total_s;
  EXPECT_LT(t1, t10);
  EXPECT_LT(t10, t100);
}

TEST(SimulateStaged, SingleFileWaitsForFullGeneration) {
  // With one aggregated file, transfer cannot start before the last frame:
  // total > generation time.
  StagedTransferConfig cfg;
  const auto scan = tiny_scan(0.05);  // 5 s generation
  const auto t = simulate_staged(cfg, scan, 1);
  EXPECT_GT(t.files[0].transfer_start_s, scan.generation_time().seconds());
  EXPECT_GT(t.total_s, 5.0);
}

TEST(SimulateStaged, OverlapShortensCompletionAtHighRates) {
  StagedTransferConfig overlap;
  overlap.overlap_transfer_with_generation = true;
  StagedTransferConfig serial = overlap;
  serial.overlap_transfer_with_generation = false;
  const auto scan = tiny_scan(0.05);
  const double with_overlap = simulate_staged(overlap, scan, 10).total_s;
  const double without = simulate_staged(serial, scan, 10).total_s;
  EXPECT_LE(with_overlap, without);
}

TEST(SimulateStaged, DestReadToggleControlsFinalPhase) {
  StagedTransferConfig with_read;
  with_read.include_dest_read = true;
  StagedTransferConfig no_read = with_read;
  no_read.include_dest_read = false;
  const auto a = simulate_staged(with_read, tiny_scan(), 10);
  const auto b = simulate_staged(no_read, tiny_scan(), 10);
  EXPECT_GT(a.total_s, b.total_s);
  EXPECT_DOUBLE_EQ(b.total_s, b.transfer_done_s);
}

TEST(SimulateStaged, ThetaAboveOneAndGrowsWithFileCount) {
  // Near-instant generation leaves only staging, per-file, WAN and read
  // overheads in the completion time.
  StagedTransferConfig cfg;
  const double theta_1 = simulate_staged(cfg, tiny_scan(1e-9), 1).theta();
  const double theta_100 = simulate_staged(cfg, tiny_scan(1e-9), 100).theta();
  EXPECT_GE(theta_1, 1.0);
  EXPECT_GT(theta_100, theta_1);  // more files, more overhead
}

TEST(SimulateStaged, ApsScanRunsAtPaperScale) {
  // Smoke test at the real Fig. 4 scale (1,440 frames, 12.6 GB).
  StagedTransferConfig cfg;
  const auto scan = detector::aps_scan(units::Seconds::of(0.033));
  const auto t = simulate_staged(cfg, scan, 1440);
  EXPECT_EQ(t.files.size(), 1440u);
  EXPECT_GT(t.total_s, scan.generation_time().seconds());
}

}  // namespace
}  // namespace sss::storage
