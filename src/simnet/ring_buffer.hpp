// ring_buffer.hpp — a growable single-threaded FIFO ring.
//
// Replaces std::deque on the packet hot path (Link's in-flight queue): a
// deque allocates chunk-by-chunk and double-dereferences on every access,
// while the ring is one contiguous power-of-two slab with mask indexing.
// Growth moves the live elements into a doubled slab; pre-size with
// `reserve` where the steady-state depth is known (Link sizes it from the
// drop-tail buffer's packet capacity).
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
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  // Ensure capacity for at least `n` elements without further allocation.
  void reserve(std::size_t n) {
    if (n > slots_.size()) grow(round_up_pow2(n));
  }

  [[nodiscard]] T& front() { return slots_[head_]; }

  void push_back(T value) {
    if (count_ == slots_.size()) grow(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(value);
    ++count_;
  }

  // Remove and return the oldest element (moved out, not copied).
  [[nodiscard]] T pop_front() {
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
    return out;
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
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::pmr::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace sss::simnet
