// event_queue.hpp — the control-plane event queue.
//
// A binary min-heap keyed on (time, sequence).  The sequence number makes
// ordering of simultaneous events deterministic (FIFO in scheduling order),
// which in turn makes every experiment reproducible bit-for-bit from its
// seed — a property the test suite relies on.
//
// Link deliveries, the bulk of a packet simulation's events, never enter
// this queue: Simulation dispatches them from its own sorted ring of busy
// links (see simnet/simulation.hpp).  What remains is the control plane — RTO timers,
// flow starts, scheduler pumps, background arrivals — a few percent of all
// events, so a plain heap suffices.
//
// Reserved sequences: both dispatch structures share this queue's sequence
// counter.  A link claims its delivery's sequence number at transmit time
// (reserve_seq), so deliveries and events form one (time, seq) total order,
// bit-identical to scheduling one event per packet.
//
// Events target an EventHandler with an integer kind and two integer
// arguments rather than a std::function: the hot path must not allocate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory_resource>
#include <stdexcept>
#include <vector>

#include "simnet/time.hpp"

namespace sss::simnet {

class Simulation;

// Implemented by anything that receives scheduled events (flows, workload
// orchestrators, background traffic).
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void on_event(Simulation& sim, int kind, std::uint64_t a, std::uint64_t b) = 0;
};

struct Event {
  SimTime at;
  std::uint64_t seq;  // tie-breaker: schedule order
  EventHandler* handler;
  int kind;
  std::uint64_t a;
  std::uint64_t b;
};

class EventQueue {
 public:
  // Heap storage draws from `mem` — pass a per-cell Arena (simnet/arena.hpp)
  // to keep queue growth off the global heap.
  explicit EventQueue(
      std::pmr::memory_resource* mem = std::pmr::get_default_resource())
      : heap_(mem) {}

  void schedule(SimTime at, EventHandler& handler, int kind, std::uint64_t a = 0,
                std::uint64_t b = 0) {
    if (at < 0) throw std::invalid_argument("EventQueue: negative event time");
    heap_.push_back(Event{at, next_seq_++, &handler, kind, a, b});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    if (heap_.size() > high_water_) high_water_ = heap_.size();
  }

  // Claim the next sequence number without scheduling anything: a link's
  // delivery key (see Simulation).
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  // The earliest pending event.  Precondition: !empty().
  [[nodiscard]] const Event& front() const { return heap_.front(); }
  // Earliest scheduled time.  Precondition: !empty().
  [[nodiscard]] SimTime next_time() const {
    if (heap_.empty()) throw std::logic_error("EventQueue::next_time on empty queue");
    return heap_.front().at;
  }
  // Pop the earliest event.  Precondition: !empty().
  [[nodiscard]] Event pop() {
    if (heap_.empty()) throw std::logic_error("EventQueue::pop on empty queue");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
  }
  // Sequence numbers consumed so far (schedule() calls + reserve_seq()
  // claims) — the historical "events scheduled" figure.
  [[nodiscard]] std::uint64_t scheduled_total() const { return next_seq_; }
  // Largest number of events ever resident at once.
  [[nodiscard]] std::size_t high_water_mark() const { return high_water_; }

 private:
  // Heap comparator: x before y when x fires later, so the heap's front is
  // the earliest (time, seq) key.
  struct Later {
    bool operator()(const Event& x, const Event& y) const {
      if (x.at != y.at) return x.at > y.at;
      return x.seq > y.seq;
    }
  };

  std::pmr::vector<Event> heap_;
  std::size_t high_water_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sss::simnet
