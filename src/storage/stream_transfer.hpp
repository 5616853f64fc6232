// stream_transfer.hpp — the memory-to-memory streaming path of Fig. 1(b).
//
// Frames leave for the WAN the moment they are generated: no staging, no
// aggregation waits, no per-file metadata.  The sender is a single
// serializer, so when the WAN (x efficiency) outruns generation the
// completion time collapses to generation time plus the tail of the last
// frame — the overlap that gives streaming its Fig. 4 advantage.
#pragma once

#include <cstdint>

#include "detector/frame.hpp"
#include "units/units.hpp"

namespace sss::storage {

struct StreamTransferConfig {
  units::DataRate wan_bandwidth = units::DataRate::gigabits_per_second(25.0);
  // Transfer efficiency alpha (Section 3.1): effective rate / bandwidth.
  double efficiency = 0.9;
  // One-time connection establishment (sockets, auth, memory registration).
  units::Seconds connection_setup = units::Seconds::millis(500.0);
  // Per-frame serialization/framing overhead on the sender.
  units::Seconds per_frame_overhead = units::Seconds::micros(200.0);
  // One-way latency for the final bytes of each frame to land.
  units::Seconds propagation_delay = units::Seconds::millis(8.0);

  void validate() const;
  [[nodiscard]] units::DataRate effective_bandwidth() const {
    return wan_bandwidth * efficiency;
  }
};

struct StreamTimeline {
  double generation_done_s = 0.0;
  double transfer_done_s = 0.0;  // last frame landed remotely
  double total_s = 0.0;
  double pure_wan_transfer_s = 0.0;  // S / (alpha * Bw), Eq. 5
  // Streaming theta analog: total / pure transfer (>= 1; ~1 when
  // transfer-bound, > 1 when generation-bound).
  [[nodiscard]] double theta() const {
    return pure_wan_transfer_s > 0.0 ? total_s / pure_wan_transfer_s : 0.0;
  }
};

[[nodiscard]] StreamTimeline simulate_stream(const StreamTransferConfig& config,
                                             const detector::ScanWorkload& scan);

}  // namespace sss::storage
