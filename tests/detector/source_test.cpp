// Tests for the frame source iteration and random access.
#include "detector/source.hpp"

#include <gtest/gtest.h>

namespace sss::detector {
namespace {

ScanWorkload small_scan() {
  ScanWorkload scan;
  scan.frame_count = 5;
  scan.frame_size = units::Bytes::of(4096.0);
  scan.frame_interval = units::Seconds::of(0.5);
  return scan;
}

TEST(FrameSource, IteratesAllFramesInOrder) {
  FrameSource src(small_scan());
  std::uint64_t expected = 0;
  while (auto f = src.next_frame()) {
    EXPECT_EQ(f->descriptor.index, expected);
    EXPECT_DOUBLE_EQ(f->descriptor.size.bytes(), 4096.0);
    EXPECT_DOUBLE_EQ(f->descriptor.generated_at.seconds(), 0.5 * (expected + 1));
    ++expected;
  }
  EXPECT_EQ(expected, 5u);
  EXPECT_TRUE(src.exhausted());
  EXPECT_EQ(src.remaining(), 0u);
}

TEST(FrameSource, NextFrameCarriesPayload) {
  FrameSource src(small_scan(), PayloadPattern::kGradient, 7);
  auto frame = src.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->size_bytes(), 4096u);
  EXPECT_EQ(frame->descriptor.index, 0u);
  EXPECT_EQ(src.emitted(), 1u);
}

TEST(FrameSource, RandomAccessMatchesIteration) {
  FrameSource src(small_scan(), PayloadPattern::kNoise, 11);
  const Frame direct = src.frame_at(3);
  FrameSource src2(small_scan(), PayloadPattern::kNoise, 11);
  for (int i = 0; i < 3; ++i) (void)src2.next_frame();
  const auto iterated = src2.next_frame();
  ASSERT_TRUE(iterated.has_value());
  EXPECT_EQ(direct.payload, iterated->payload);
  EXPECT_EQ(direct.descriptor.index, iterated->descriptor.index);
}

TEST(FrameSource, OutOfRangeAccessThrows) {
  FrameSource src(small_scan());
  EXPECT_THROW((void)src.descriptor_at(5), std::out_of_range);
  EXPECT_THROW((void)src.frame_at(100), std::out_of_range);
}

TEST(FrameSource, ResetRestartsIteration) {
  FrameSource src(small_scan());
  (void)src.next_frame();
  (void)src.next_frame();
  src.reset();
  EXPECT_EQ(src.emitted(), 0u);
  const auto frame = src.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->descriptor.index, 0u);
}

TEST(FrameSource, RejectsInvalidScan) {
  ScanWorkload bad = small_scan();
  bad.frame_count = 0;
  EXPECT_THROW(FrameSource{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace sss::detector
