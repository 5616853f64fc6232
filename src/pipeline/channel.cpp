#include "pipeline/channel.hpp"

namespace sss::pipeline {

FrameChannel::FrameChannel(const ChannelConfig& config, Clock& clock)
    : config_(config),
      bucket_(config.bandwidth, config.burst, clock),
      queue_(config.queue_frames) {}

bool FrameChannel::send(detector::Frame frame) {
  const units::Bytes size = units::Bytes::of(static_cast<double>(frame.size_bytes()));
  bucket_.acquire(size);
  return queue_.push(std::move(frame));
}

std::optional<detector::Frame> FrameChannel::recv() { return queue_.pop(); }

void FrameChannel::close() { queue_.close(); }

}  // namespace sss::pipeline
