// presets.hpp — file-system and WAN presets for the Fig. 4 scenario.
//
// Parameters are order-of-magnitude transcriptions of the public systems
// the paper measures between:
//   - APS "Voyager": GPFS appliance at the Advanced Photon Source;
//   - ALCF "Eagle": 100 PB community Lustre file system at Argonne;
//   - the APS -> ALCF path: high-bandwidth campus/ESnet connectivity.
// Absolute bandwidths are deliberately conservative single-client figures —
// what one DTN-driven workflow observes — not aggregate file-system peaks.
// EXPERIMENTS.md discusses the calibration.
#pragma once

#include "storage/pfs_model.hpp"
#include "units/units.hpp"

namespace sss::storage {

// APS Voyager (GPFS): strong streaming, millisecond-class metadata.
[[nodiscard]] PfsConfig aps_voyager_gpfs();

// ALCF Eagle (Lustre): community FS; metadata round trips are the
// documented pain point for many-small-file workloads.
[[nodiscard]] PfsConfig alcf_eagle_lustre();

// WAN path parameters for staged (file-based) transfers APS -> ALCF.
struct WanConfig {
  units::DataRate bandwidth = units::DataRate::gigabits_per_second(25.0);
  // Transfer-tool session setup (control channel, auth) paid once.
  units::Seconds session_startup = units::Seconds::of(2.0);
  // Per-file cost: transfer-job entry, control-channel round trips,
  // checksum verification at both ends, destination create.  Calibrated to
  // ~1 s/file — the effective sequential small-file rate implied by the
  // paper's measured 97 % streaming reduction for the 1,440-file case
  // (Globus/GridFTP-class tools with per-file checksumming sustain roughly
  // one small file per second over a 16 ms-RTT WAN).  EXPERIMENTS.md
  // discusses the sensitivity of Fig. 4 to this parameter.
  units::Seconds per_file_overhead = units::Seconds::of(1.0);
  // Effective wire efficiency for bulk data (protocol + encryption).
  double efficiency = 0.9;

  void validate() const;
  [[nodiscard]] units::DataRate effective_bandwidth() const;
};

[[nodiscard]] WanConfig aps_to_alcf_wan();

}  // namespace sss::storage
