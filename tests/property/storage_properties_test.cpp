// Property tests for the storage models: monotonicity in every parameter
// and cross-model consistency, over randomized configurations.
#include <gtest/gtest.h>

#include <vector>

#include "stats/rng.hpp"
#include "storage/staged_transfer.hpp"
#include "storage/stream_transfer.hpp"

namespace sss::storage {
namespace {

detector::ScanWorkload random_scan(stats::Random& rng) {
  detector::ScanWorkload scan;
  scan.frame_count = 20 + rng.uniform_index(200);
  scan.frame_size = units::Bytes::megabytes(rng.uniform(0.5, 16.0));
  scan.frame_interval = units::Seconds::of(rng.uniform(0.001, 0.2));
  return scan;
}

class StorageProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageProperty, StagedMonotoneInFileCountOnceGenerationIsFast) {
  stats::Random rng(GetParam());
  detector::ScanWorkload scan = random_scan(rng);
  scan.frame_interval = units::Seconds::micros(10.0);  // isolate file effects
  StagedTransferConfig cfg;
  double prev = 0.0;
  for (std::uint64_t files :
       std::vector<std::uint64_t>{1, 2, 5, 10, scan.frame_count}) {
    const double total = simulate_staged(cfg, scan, files).total_s;
    EXPECT_GE(total, prev - 1e-9) << files;
    prev = total;
  }
}

TEST_P(StorageProperty, StagedNeverFasterThanStreaming) {
  stats::Random rng(GetParam() + 1000);
  const auto scan = random_scan(rng);
  StagedTransferConfig staged_cfg;
  StreamTransferConfig stream_cfg;
  stream_cfg.wan_bandwidth = staged_cfg.wan.bandwidth;
  stream_cfg.efficiency = staged_cfg.wan.efficiency;
  const double stream = simulate_stream(stream_cfg, scan).total_s;
  for (std::uint64_t files : std::vector<std::uint64_t>{1, 7, scan.frame_count}) {
    const double staged = simulate_staged(staged_cfg, scan, files).total_s;
    // Streaming has no staging, no per-file cost and full overlap: it is a
    // lower bound for every file-based configuration (connection setup is
    // negligible against any PFS write).
    EXPECT_GE(staged, stream * 0.999) << files;
  }
}

TEST_P(StorageProperty, StagedMonotoneInOverheadParameters) {
  stats::Random rng(GetParam() + 2000);
  const auto scan = random_scan(rng);
  StagedTransferConfig base;
  const double base_total = simulate_staged(base, scan, 10).total_s;

  StagedTransferConfig slower_meta = base;
  slower_meta.source_pfs.metadata_latency =
      base.source_pfs.metadata_latency * 4.0;
  EXPECT_GE(simulate_staged(slower_meta, scan, 10).total_s, base_total - 1e-9);

  StagedTransferConfig slower_wan = base;
  slower_wan.wan.bandwidth = base.wan.bandwidth / 2.0;
  EXPECT_GE(simulate_staged(slower_wan, scan, 10).total_s, base_total - 1e-9);

  StagedTransferConfig costlier_files = base;
  costlier_files.wan.per_file_overhead = base.wan.per_file_overhead * 3.0;
  EXPECT_GE(simulate_staged(costlier_files, scan, 10).total_s, base_total - 1e-9);
}

TEST_P(StorageProperty, StreamMonotoneInBandwidthAndRate) {
  stats::Random rng(GetParam() + 3000);
  const auto scan = random_scan(rng);
  StreamTransferConfig cfg;
  const double base_total = simulate_stream(cfg, scan).total_s;

  StreamTransferConfig faster = cfg;
  faster.wan_bandwidth = cfg.wan_bandwidth * 2.0;
  EXPECT_LE(simulate_stream(faster, scan).total_s, base_total + 1e-9);

  StreamTransferConfig less_efficient = cfg;
  less_efficient.efficiency = cfg.efficiency * 0.5;
  EXPECT_GE(simulate_stream(less_efficient, scan).total_s, base_total - 1e-9);
}

TEST_P(StorageProperty, TimelineInvariantsHold) {
  stats::Random rng(GetParam() + 4000);
  const auto scan = random_scan(rng);
  StagedTransferConfig cfg;
  const std::uint64_t files = 1 + rng.uniform_index(scan.frame_count);
  const auto t = simulate_staged(cfg, scan, files);
  // Completion bounds: never before generation or pure transfer.
  EXPECT_GE(t.total_s, scan.generation_time().seconds());
  EXPECT_GE(t.total_s, t.pure_wan_transfer_s);
  EXPECT_GE(t.theta(), 1.0);
  // Files are disjoint, ordered, and cover the scan.
  std::uint64_t cursor = 0;
  for (const auto& f : t.files) {
    EXPECT_EQ(f.frame_begin, cursor);
    EXPECT_GT(f.frame_end, f.frame_begin);
    cursor = f.frame_end;
  }
  EXPECT_EQ(cursor, scan.frame_count);
}

INSTANTIATE_TEST_SUITE_P(RandomScans, StorageProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace sss::storage
