#include "detector/source.hpp"

#include <stdexcept>

namespace sss::detector {

FrameSource::FrameSource(ScanWorkload scan, PayloadPattern pattern, std::uint64_t seed)
    : scan_(scan), pattern_(pattern), seed_(seed) {
  scan_.validate();
}

std::optional<Frame> FrameSource::next_frame() {
  if (exhausted()) return std::nullopt;
  return frame_at(cursor_++);
}

FrameDescriptor FrameSource::descriptor_at(std::uint64_t index) const {
  if (index >= scan_.frame_count) {
    throw std::out_of_range("FrameSource: frame index out of range");
  }
  FrameDescriptor d;
  d.index = index;
  d.size = scan_.frame_size;
  d.generated_at = scan_.frame_ready_at(index);
  return d;
}

Frame FrameSource::frame_at(std::uint64_t index) const {
  Frame f;
  f.descriptor = descriptor_at(index);
  f.payload = make_payload(pattern_, seed_, index,
                           static_cast<std::size_t>(scan_.frame_size.bytes()));
  return f;
}

}  // namespace sss::detector
