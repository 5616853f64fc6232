#include "storage/stream_transfer.hpp"

#include <algorithm>
#include <stdexcept>

namespace sss::storage {

void StreamTransferConfig::validate() const {
  if (!wan_bandwidth.is_positive()) {
    throw std::invalid_argument("StreamTransferConfig: wan_bandwidth must be > 0");
  }
  if (!(efficiency > 0.0) || efficiency > 1.0) {
    throw std::invalid_argument("StreamTransferConfig: efficiency must be in (0, 1]");
  }
  if (connection_setup.seconds() < 0.0 || per_frame_overhead.seconds() < 0.0 ||
      propagation_delay.seconds() < 0.0) {
    throw std::invalid_argument("StreamTransferConfig: overheads must be >= 0");
  }
}

StreamTimeline simulate_stream(const StreamTransferConfig& config,
                               const detector::ScanWorkload& scan) {
  config.validate();
  scan.validate();

  StreamTimeline timeline;
  timeline.generation_done_s = scan.generation_time().seconds();
  timeline.pure_wan_transfer_s =
      (scan.total_bytes() / config.effective_bandwidth()).seconds();

  const double frame_tx_s =
      scan.frame_size.bytes() / config.effective_bandwidth().bps() +
      config.per_frame_overhead.seconds();
  const double prop_s = config.propagation_delay.seconds();

  // Sender serializer: frame i starts when generated and when the sender is
  // free, lands one propagation delay after its last byte leaves.
  double send_avail = config.connection_setup.seconds();
  double last_landed = 0.0;
  for (std::uint64_t i = 0; i < scan.frame_count; ++i) {
    const double ready = scan.frame_ready_at(i).seconds();
    send_avail = std::max(send_avail, ready) + frame_tx_s;
    last_landed = send_avail + prop_s;
  }

  timeline.transfer_done_s = last_landed;
  timeline.total_s = last_landed;
  return timeline;
}

}  // namespace sss::storage
