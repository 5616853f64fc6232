#include "storage/presets.hpp"

#include <stdexcept>

namespace sss::storage {

PfsConfig aps_voyager_gpfs() {
  PfsConfig cfg;
  cfg.name = "APS Voyager (GPFS)";
  cfg.metadata_latency = units::Seconds::millis(3.0);
  cfg.open_close_latency = units::Seconds::millis(1.0);
  cfg.write_bandwidth = units::DataRate::gigabytes_per_second(8.0);
  cfg.read_bandwidth = units::DataRate::gigabytes_per_second(10.0);
  cfg.metadata_parallelism = 1;
  cfg.bandwidth_ramp = units::Bytes::megabytes(4.0);
  return cfg;
}

PfsConfig alcf_eagle_lustre() {
  PfsConfig cfg;
  cfg.name = "ALCF Eagle (Lustre)";
  cfg.metadata_latency = units::Seconds::millis(5.0);
  cfg.open_close_latency = units::Seconds::millis(2.0);
  cfg.write_bandwidth = units::DataRate::gigabytes_per_second(10.0);
  cfg.read_bandwidth = units::DataRate::gigabytes_per_second(12.0);
  cfg.metadata_parallelism = 1;
  cfg.bandwidth_ramp = units::Bytes::megabytes(8.0);
  return cfg;
}

void WanConfig::validate() const {
  if (!bandwidth.is_positive()) throw std::invalid_argument("WanConfig: bandwidth must be > 0");
  if (session_startup.seconds() < 0.0) {
    throw std::invalid_argument("WanConfig: session_startup must be >= 0");
  }
  if (per_file_overhead.seconds() < 0.0) {
    throw std::invalid_argument("WanConfig: per_file_overhead must be >= 0");
  }
  if (!(efficiency > 0.0) || efficiency > 1.0) {
    throw std::invalid_argument("WanConfig: efficiency must be in (0, 1]");
  }
}

units::DataRate WanConfig::effective_bandwidth() const { return bandwidth * efficiency; }

WanConfig aps_to_alcf_wan() { return WanConfig{}; }

}  // namespace sss::storage
