#include "detector/facility.hpp"

namespace sss::detector {

WorkflowProfile coherent_scattering() {
  WorkflowProfile w;
  w.name = "Coherent Scattering (XPCS, XSVS)";
  w.throughput = units::DataRate::gigabytes_per_second(2.0);
  w.offline_analysis = units::Flops::tera(34.0);
  return w;
}

WorkflowProfile liquid_scattering() {
  WorkflowProfile w;
  w.name = "Liquid Scattering";
  w.throughput = units::DataRate::gigabytes_per_second(4.0);
  w.offline_analysis = units::Flops::tera(20.0);
  return w;
}

std::vector<WorkflowProfile> table3_workflows() {
  return {coherent_scattering(), liquid_scattering()};
}

ScanWorkload aps_scan(units::Seconds seconds_per_frame) {
  ScanWorkload scan;
  scan.frame_count = 1440;
  // 2048 x 2048 pixels x 2-byte unsigned integers = 8 MiB per frame;
  // 1,440 frames ~ 12.6 GB, matching Section 4.2.
  scan.frame_size = units::Bytes::of(2048.0 * 2048.0 * 2.0);
  scan.frame_interval = seconds_per_frame;
  return scan;
}

DeleriaProfile deleria_profile() { return DeleriaProfile{}; }

}  // namespace sss::detector
