// Tests for the parallel-file-system model: per-file costs, bandwidth
// scaling, and the small-file penalty that drives Fig. 4.
#include "storage/pfs_model.hpp"

#include <gtest/gtest.h>

#include "storage/presets.hpp"

namespace sss::storage {
namespace {

PfsConfig simple_pfs() {
  PfsConfig cfg;
  cfg.metadata_latency = units::Seconds::millis(4.0);
  cfg.open_close_latency = units::Seconds::millis(1.0);
  cfg.write_bandwidth = units::DataRate::gigabytes_per_second(10.0);
  cfg.read_bandwidth = units::DataRate::gigabytes_per_second(10.0);
  cfg.metadata_parallelism = 1;
  cfg.bandwidth_ramp = units::Bytes::of(0.0);  // pure model unless testing ramp
  return cfg;
}

TEST(PfsConfig, ValidationCatchesBadValues) {
  PfsConfig bad = simple_pfs();
  bad.write_bandwidth = units::DataRate::bytes_per_second(0.0);
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = simple_pfs();
  bad.metadata_parallelism = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = simple_pfs();
  bad.metadata_latency = units::Seconds::of(-1.0);
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(PfsModel, CreateTimeLinearInFileCount) {
  PfsModel pfs(simple_pfs());
  EXPECT_DOUBLE_EQ(pfs.create_time(1).ms(), 5.0);
  EXPECT_DOUBLE_EQ(pfs.create_time(1440).seconds(), 1440 * 0.005);
}

TEST(PfsModel, MetadataParallelismDividesPerFileCost) {
  PfsConfig cfg = simple_pfs();
  cfg.metadata_parallelism = 4;
  PfsModel pfs(cfg);
  EXPECT_DOUBLE_EQ(pfs.create_time(4).ms(), 5.0);
}

TEST(PfsModel, WriteTimeSingleLargeFileIsBandwidthBound) {
  PfsModel pfs(simple_pfs());
  const auto t = pfs.write_time(1, units::Bytes::gigabytes(10.0));
  EXPECT_NEAR(t.seconds(), 1.0 + 0.005, 1e-9);
}

TEST(PfsModel, SmallFilePenaltyGrowsWithFileCount) {
  PfsModel pfs(simple_pfs());
  const units::Bytes total = units::Bytes::gigabytes(12.6);
  const double one = pfs.write_time(1, total).seconds();
  const double ten = pfs.write_time(10, total).seconds();
  const double many = pfs.write_time(1440, total).seconds();
  EXPECT_LT(one, ten);
  EXPECT_LT(ten, many);
  // 1,440 files pay ~7.2 s of metadata alone.
  EXPECT_GT(many - one, 7.0);
}

TEST(PfsModel, ZeroByteWorkloadsCostOnlyMetadata) {
  PfsModel pfs(simple_pfs());
  EXPECT_DOUBLE_EQ(pfs.write_time(3, units::Bytes::of(0.0)).seconds(),
                   pfs.create_time(3).seconds());
}

TEST(PfsModel, FileCountZeroThrows) {
  PfsModel pfs(simple_pfs());
  EXPECT_THROW((void)pfs.write_time(0, units::Bytes::gigabytes(1.0)), std::invalid_argument);
  EXPECT_THROW((void)pfs.read_time(0, units::Bytes::gigabytes(1.0)), std::invalid_argument);
}

TEST(PfsModel, BandwidthRampPenalizesSmallFiles) {
  PfsConfig cfg = simple_pfs();
  cfg.bandwidth_ramp = units::Bytes::megabytes(4.0);
  PfsModel pfs(cfg);
  // 4 MB files reach only half the stream bandwidth.
  EXPECT_NEAR(pfs.effective_write_bandwidth(units::Bytes::megabytes(4.0)).gBps(), 5.0,
              1e-9);
  // Large files asymptote to full bandwidth.
  EXPECT_NEAR(pfs.effective_write_bandwidth(units::Bytes::gigabytes(4.0)).gBps(), 10.0,
              0.05);
}

TEST(PfsModel, ReadUsesReadBandwidth) {
  PfsConfig cfg = simple_pfs();
  cfg.read_bandwidth = units::DataRate::gigabytes_per_second(20.0);
  PfsModel pfs(cfg);
  const double write_s = pfs.write_time(1, units::Bytes::gigabytes(10.0)).seconds();
  const double read_s = pfs.read_time(1, units::Bytes::gigabytes(10.0)).seconds();
  EXPECT_LT(read_s, write_s);
}

TEST(Presets, AreValidAndDistinct) {
  for (const PfsConfig& cfg : {aps_voyager_gpfs(), alcf_eagle_lustre(), local_nvme()}) {
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_FALSE(cfg.name.empty());
  }
  // NVMe metadata is orders of magnitude faster than the parallel FS.
  EXPECT_LT(local_nvme().metadata_latency.seconds(),
            alcf_eagle_lustre().metadata_latency.seconds() / 10.0);
}

TEST(WanConfig, ValidationAndEffectiveBandwidth) {
  WanConfig wan = aps_to_alcf_wan();
  EXPECT_NO_THROW(wan.validate());
  EXPECT_NEAR(wan.effective_bandwidth().gbit_per_s(), 25.0 * 0.9, 1e-9);
  wan.efficiency = 0.0;
  EXPECT_THROW(wan.validate(), std::invalid_argument);
  wan.efficiency = 1.5;
  EXPECT_THROW(wan.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace sss::storage
