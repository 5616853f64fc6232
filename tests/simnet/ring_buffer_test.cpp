// Tests for the hot-path FIFO ring: FIFO order, in-place slots, reserve,
// and — critically — growth while head_ is wrapped mid-buffer, the one
// production-reachable path (Link caps its pre-size, so a high-BDP link can
// outgrow it mid-simulation) where an unwrap mistake would silently reorder
// in-flight packets.
#include "simnet/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

namespace sss::simnet {
namespace {

template <typename T>
void push(RingBuffer<T>& ring, T value) {
  ring.push_slot() = std::move(value);
}

template <typename T>
T pop(RingBuffer<T>& ring) {
  T out = std::move(ring.front());
  ring.drop_front();
  return out;
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> ring;
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 5; ++i) push(ring, i);
  EXPECT_EQ(ring.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(pop(ring), i);
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, ReservePreallocates) {
  RingBuffer<int> ring;
  ring.reserve(100);
  const std::size_t cap = ring.capacity();
  EXPECT_GE(cap, 100u);
  for (int i = 0; i < 100; ++i) push(ring, i);
  EXPECT_EQ(ring.capacity(), cap) << "no growth within reserved capacity";
}

TEST(RingBuffer, GrowthWithWrappedHeadPreservesOrder) {
  RingBuffer<int> ring;  // the first push allocates the 16-slot minimum
  // Wrap head_ past the middle of the slab, keeping the ring full enough
  // that the next pushes straddle the wrap point.
  for (int i = 0; i < 12; ++i) push(ring, i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(pop(ring), i);
  for (int i = 12; i < 26; ++i) push(ring, i);  // fills to 16, wraps
  EXPECT_EQ(ring.size(), 16u);
  EXPECT_TRUE(ring.full());
  push(ring, 26);  // forces grow() with head_ != 0 and wrapped contents
  push(ring, 27);
  EXPECT_GT(ring.capacity(), 16u);
  EXPECT_FALSE(ring.full());
  for (int i = 10; i < 28; ++i) EXPECT_EQ(pop(ring), i);
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, RepeatedWrapAndGrowStress) {
  RingBuffer<std::uint64_t> ring;
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  // Sawtooth depth so head_ lands at many different offsets across several
  // doublings; verify strict FIFO throughout.
  for (int round = 0; round < 200; ++round) {
    const int depth = 3 + (round * 7) % 97;
    for (int i = 0; i < depth; ++i) push(ring, next_in++);
    const int drain = depth / 2 + (round % 3);
    for (int i = 0; i < drain && !ring.empty(); ++i) {
      ASSERT_EQ(pop(ring), next_out++);
    }
  }
  while (!ring.empty()) ASSERT_EQ(pop(ring), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(RingBuffer, FrontIsUsedInPlace) {
  RingBuffer<std::unique_ptr<std::string>> ring;
  push(ring, std::make_unique<std::string>("a"));
  push(ring, std::make_unique<std::string>("b"));
  std::string* const a = ring.front().get();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, "a");
  ring.front()->append("!");
  EXPECT_EQ(*a, "a!");
  ring.drop_front();
  EXPECT_EQ(*ring.front(), "b");
  EXPECT_EQ(ring.size(), 1u);
}

TEST(RingBuffer, GrowthWithMoveOnlyElements) {
  RingBuffer<std::unique_ptr<int>> ring;  // 16 slots after the first push
  for (int i = 0; i < 8; ++i) push(ring, std::make_unique<int>(i));
  for (int i = 0; i < 6; ++i) EXPECT_EQ(*pop(ring), i);
  for (int i = 8; i < 40; ++i) push(ring, std::make_unique<int>(i));  // grows wrapped
  for (int i = 6; i < 40; ++i) {
    auto p = pop(ring);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace sss::simnet
