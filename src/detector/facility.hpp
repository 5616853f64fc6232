// facility.hpp — workflow presets from the paper.
//
// Every number here is transcribed from the paper (Sections 2.2, 4.2 and
// Table 3) so case studies reference a single source of truth:
//   - LCLS-II Table 3 workflows (Coherent Scattering 2 GB/s + 34 TF, Liquid
//     Scattering 4 GB/s + 20 TF);
//   - the APS Fig. 4 scan (1,440 frames of 2048 x 2048 2-byte pixels,
//     ~12.6 GB);
//   - FRIB/DELERIA: 40 Gbps streaming (targeting 100 Gbps), 240 MB/s event
//     stream over ~100 analysis processes (~2 MB/s each), 97.5 % reduction.
#pragma once

#include <string>
#include <vector>

#include "detector/frame.hpp"
#include "units/units.hpp"

namespace sss::detector {

// A named analysis workflow (Table 3 rows): sustained throughput the
// facility must move and the compute the offline analysis needs per second
// of acquired data.
struct WorkflowProfile {
  std::string name;
  units::DataRate throughput;        // post-reduction sustained rate
  units::Flops offline_analysis;     // work per second of data (paper: "TF")
  // Data accumulated per aggregation window (1 s windows in the case study).
  [[nodiscard]] units::Bytes bytes_per_window(units::Seconds window) const {
    return throughput * window;
  }
  // Complexity coefficient C = work / bytes (Section 3.1).
  [[nodiscard]] units::Complexity complexity() const {
    return units::Complexity::flop_per_byte(offline_analysis.flop() /
                                            throughput.bps());
  }
};

// --- Table 3 workflows ---
[[nodiscard]] WorkflowProfile coherent_scattering();  // XPCS/XSVS: 2 GB/s, 34 TF
[[nodiscard]] WorkflowProfile liquid_scattering();    // 4 GB/s, 20 TF
[[nodiscard]] std::vector<WorkflowProfile> table3_workflows();

// --- Fig. 4 scan: 1,440 frames of 2048 x 2048 x 2 B (~12.6 GB total) ---
// `seconds_per_frame` is 0.033 (high rate) or 0.33 (low rate) in the paper.
[[nodiscard]] ScanWorkload aps_scan(units::Seconds seconds_per_frame);

// DELERIA event-stream sizing: per-process output budget (~2 MB/s) and the
// aggregate event stream (240 MB/s over `process_count` processes).
struct DeleriaProfile {
  int process_count = 100;
  units::DataRate event_stream = units::DataRate::megabytes_per_second(240.0);
  units::DataRate input_rate = units::DataRate::gigabits_per_second(40.0);
  double reduction = 0.975;  // fraction of data removed
  [[nodiscard]] units::DataRate per_process_rate() const {
    return event_stream / static_cast<double>(process_count);
  }
};
[[nodiscard]] DeleriaProfile deleria_profile();

}  // namespace sss::detector
