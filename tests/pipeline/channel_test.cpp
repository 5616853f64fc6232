// Tests for the rate-limited frame channel.
#include "pipeline/channel.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "detector/source.hpp"

namespace sss::pipeline {
namespace {

detector::Frame make_frame(std::uint64_t index, std::size_t bytes) {
  detector::Frame f;
  f.descriptor.index = index;
  f.descriptor.size = units::Bytes::of(static_cast<double>(bytes));
  f.payload = detector::make_payload(detector::PayloadPattern::kGradient, 1, index, bytes);
  return f;
}

ChannelConfig small_channel() {
  ChannelConfig cfg;
  cfg.bandwidth = units::DataRate::megabytes_per_second(100.0);
  cfg.burst = units::Bytes::megabytes(1.0);
  cfg.queue_frames = 4;
  return cfg;
}

TEST(FrameChannel, SendRecvRoundTrip) {
  VirtualClock clock;
  FrameChannel ch(small_channel(), clock);
  ASSERT_TRUE(ch.send(make_frame(0, 1024)));
  auto got = ch.recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->descriptor.index, 0u);
  EXPECT_EQ(got->payload, make_frame(0, 1024).payload);
}

TEST(FrameChannel, FramesArriveWhole) {
  VirtualClock clock;
  FrameChannel ch(small_channel(), clock);
  ASSERT_TRUE(ch.send(make_frame(0, 1000)));
  const auto first = ch.recv();
  ASSERT_TRUE(ch.send(make_frame(1, 2000)));
  const auto second = ch.recv();
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->size_bytes(), 1000u);
  EXPECT_EQ(second->size_bytes(), 2000u);
}

TEST(FrameChannel, CloseDrainsThenEndsStream) {
  VirtualClock clock;
  FrameChannel ch(small_channel(), clock);
  ASSERT_TRUE(ch.send(make_frame(0, 64)));
  ch.close();
  EXPECT_TRUE(ch.recv().has_value());
  EXPECT_FALSE(ch.recv().has_value());
}

TEST(FrameChannel, SendAfterCloseFails) {
  VirtualClock clock;
  FrameChannel ch(small_channel(), clock);
  ch.close();
  EXPECT_FALSE(ch.send(make_frame(0, 64)));
}

TEST(FrameChannel, RateLimitPacesLargeTransfers) {
  // 10 MB through a 100 MB/s channel must advance virtual time by ~0.1 s
  // (modulo the 1 MB burst).
  VirtualClock clock;
  FrameChannel ch(small_channel(), clock);
  std::thread consumer([&] {
    while (ch.recv().has_value()) {
    }
  });
  const double before = clock.now().seconds();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ch.send(make_frame(i, 1'000'000)));
  ch.close();
  consumer.join();
  const double elapsed = clock.now().seconds() - before;
  EXPECT_NEAR(elapsed, 0.09, 0.03);  // 9 MB after burst at 100 MB/s
}

TEST(FrameChannel, BackpressureBlocksProducerUntilConsumed) {
  VirtualClock clock;
  ChannelConfig cfg = small_channel();
  cfg.queue_frames = 1;
  FrameChannel ch(cfg, clock);
  ASSERT_TRUE(ch.send(make_frame(0, 64)));
  std::atomic<bool> second_sent{false};
  std::thread producer([&] {
    ASSERT_TRUE(ch.send(make_frame(1, 64)));  // blocks until a recv
    second_sent = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(second_sent.load());
  EXPECT_TRUE(ch.recv().has_value());
  producer.join();
  EXPECT_TRUE(second_sent.load());
  EXPECT_TRUE(ch.recv().has_value());
}

TEST(FrameChannel, PreservesOrder) {
  VirtualClock clock;
  FrameChannel ch(small_channel(), clock);
  std::thread producer([&] {
    for (int i = 0; i < 50; ++i) ASSERT_TRUE(ch.send(make_frame(i, 128)));
    ch.close();
  });
  std::uint64_t expected = 0;
  while (auto f = ch.recv()) {
    EXPECT_EQ(f->descriptor.index, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, 50u);
}

}  // namespace
}  // namespace sss::pipeline
