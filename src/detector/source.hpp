// source.hpp — frame source.
//
// Produces the frames of a ScanWorkload in order, attaching deterministic
// payloads (real bytes for the threaded pipelines).  Descriptors and frames
// are also available by index without advancing the cursor.
#pragma once

#include <cstdint>
#include <optional>

#include "detector/frame.hpp"

namespace sss::detector {

class FrameSource {
 public:
  FrameSource(ScanWorkload scan, PayloadPattern pattern = PayloadPattern::kGradient,
              std::uint64_t seed = 42);

  // Next full frame (descriptor + payload), or nullopt when exhausted.
  [[nodiscard]] std::optional<Frame> next_frame();

  // Random access (does not advance the cursor).
  [[nodiscard]] FrameDescriptor descriptor_at(std::uint64_t index) const;
  [[nodiscard]] Frame frame_at(std::uint64_t index) const;

  [[nodiscard]] const ScanWorkload& scan() const { return scan_; }
  [[nodiscard]] std::uint64_t emitted() const { return cursor_; }
  [[nodiscard]] std::uint64_t remaining() const { return scan_.frame_count - cursor_; }
  [[nodiscard]] bool exhausted() const { return cursor_ >= scan_.frame_count; }
  void reset() { cursor_ = 0; }

 private:
  ScanWorkload scan_;
  PayloadPattern pattern_;
  std::uint64_t seed_;
  std::uint64_t cursor_ = 0;
};

}  // namespace sss::detector
