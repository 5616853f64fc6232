// channel.hpp — rate-limited frame channel.
//
// The in-process stand-in for the instrument-to-HPC network pipe: a bounded
// queue (backpressure) guarded by a token bucket (capacity).  send() blocks
// until the frame's bytes fit the rate budget AND the queue has space —
// exactly how a socket with a bounded send buffer behaves to the producer.
#pragma once

#include <cstddef>
#include <optional>

#include "detector/frame.hpp"
#include "pipeline/bounded_queue.hpp"
#include "pipeline/clock.hpp"
#include "pipeline/rate_limiter.hpp"
#include "units/units.hpp"

namespace sss::pipeline {

struct ChannelConfig {
  units::DataRate bandwidth = units::DataRate::gigabits_per_second(25.0);
  // Token-bucket depth (socket/NIC buffering).
  units::Bytes burst = units::Bytes::megabytes(64.0);
  // Queue depth in frames (receive-window analog).
  std::size_t queue_frames = 64;
};

class FrameChannel {
 public:
  FrameChannel(const ChannelConfig& config, Clock& clock);

  // Blocks for rate and space.  Returns false when the channel was closed.
  bool send(detector::Frame frame);
  // Blocks until a frame arrives; nullopt when closed and drained.
  std::optional<detector::Frame> recv();
  // Signal end-of-stream (sender side).
  void close();

  [[nodiscard]] const ChannelConfig& config() const { return config_; }

 private:
  ChannelConfig config_;
  TokenBucket bucket_;
  BoundedQueue<detector::Frame> queue_;
};

}  // namespace sss::pipeline
