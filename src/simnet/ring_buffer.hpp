// ring_buffer.hpp — a growable single-threaded FIFO ring.
//
// Replaces std::deque on the packet hot path (Link's in-flight queue): a
// deque allocates chunk-by-chunk and double-dereferences on every access,
// while the ring is one contiguous power-of-two slab with mask indexing.
// Growth moves the live elements into a doubled slab; pre-size with
// `reserve` where the steady-state depth is known (Link sizes it from the
// drop-tail buffer's packet capacity).
//
// Elements are used in place: push_slot hands out the new back slot for
// the caller to fill, front is read where it lies, and drop_front retires
// it — no element travels through a temporary.  Growth is the one event
// that moves elements, so a reference into the ring dangles once a
// push_slot call finds it full().
//
// The slab comes from a std::pmr::memory_resource so a sweep cell can back
// its rings with the per-cell Arena (simnet/arena.hpp) — growth then bumps
// the arena instead of hitting the heap.  Default: the global heap.
//
// Not thread-safe; for the cross-thread frame channel see
// pipeline/channel.hpp.
#pragma once

#include <cstddef>
#include <memory_resource>
#include <utility>
#include <vector>

namespace sss::simnet {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;
  explicit RingBuffer(std::pmr::memory_resource* mem) : slots_(mem) {}

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool full() const { return count_ == capacity_; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  // Ensure capacity for at least `n` elements without further allocation.
  void reserve(std::size_t n) {
    if (n > capacity_) grow(round_up_pow2(n));
  }

  // The oldest element.  Precondition: !empty().
  [[nodiscard]] T& front() { return slots_[head_]; }

  // Append one element and return its slot for the caller to fill; the
  // slot holds whatever element last used it.  Grows when full().
  [[nodiscard]] T& push_slot() {
    if (full()) grow(capacity_ == 0 ? kMinCapacity : capacity_ * 2);
    T& slot = slots_[(head_ + count_) & (capacity_ - 1)];
    ++count_;
    return slot;
  }

  // Remove the oldest element; its slot keeps the object until reused.
  // Precondition: !empty().
  void drop_front() {
    head_ = (head_ + 1) & (capacity_ - 1);
    --count_;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] static std::size_t round_up_pow2(std::size_t n) {
    std::size_t c = kMinCapacity;
    while (c < n) c *= 2;
    return c;
  }

  void grow(std::size_t new_capacity) {
    std::pmr::vector<T> next(new_capacity, slots_.get_allocator());
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (capacity_ - 1)]);
    }
    slots_ = std::move(next);
    capacity_ = new_capacity;
    head_ = 0;
  }

  std::pmr::vector<T> slots_;
  // slots_.size(), kept apart: for an element size that is not a power of
  // two, size() is a division, and every index needs the mask.
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace sss::simnet
