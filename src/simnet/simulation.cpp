#include "simnet/simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "simnet/link.hpp"

namespace sss::simnet {

Simulation::Simulation(std::pmr::memory_resource* mem) : queue_(mem), ring_(mem) {}

void Simulation::schedule_at(SimTime at, EventHandler& handler, int kind, std::uint64_t a,
                             std::uint64_t b) {
  if (at < now_) throw std::invalid_argument("Simulation: cannot schedule in the past");
  queue_.schedule(at, handler, kind, a, b);
  refresh_stop_key();
  ++pending_;
  note_pending();
}

void Simulation::reserve_links(std::size_t links) {
  std::size_t capacity = std::max<std::size_t>(ring_.size(), 8);
  while (capacity < links) capacity *= 2;
  if (capacity == ring_.size()) return;
  std::pmr::vector<BusyLink> grown(capacity, ring_.get_allocator());
  for (std::size_t i = 0; i < busy_count_; ++i) grown[i] = busy(i);
  ring_ = std::move(grown);
  head_ = 0;
  mask_ = capacity - 1;
}

void Simulation::arm_link(Link& link, SimTime at, std::uint64_t seq) {
  // A link armed while another link's sink runs carries a later key than
  // that link's front entry (its arrival is at or after now, its seq
  // fresher), so the delivering link stays in front.
  if (busy_count_ == ring_.size()) reserve_links(busy_count_ + 1);
  insert_busy(at, seq, &link);
  ++pending_;
  note_pending();
}

void Simulation::insert_busy(SimTime at, std::uint64_t seq, Link* link) {
  // Locals, not members: the entries' 64-bit fields may alias head_ and
  // mask_, which would reload them after every shifted entry.
  BusyLink* const ring = ring_.data();
  const std::size_t head = head_;
  const std::size_t mask = mask_;
  std::size_t slot = busy_count_;
  while (slot > 0) {
    const BusyLink& prev = ring[(head + slot - 1) & mask];
    if (!before(at, seq, prev.at, prev.seq)) break;
    ring[(head + slot) & mask] = prev;
    --slot;
  }
  ring[(head + slot) & mask] = BusyLink{at, seq, link};
  ++busy_count_;
}

bool Simulation::step() {
  // The earliest pending key dispatches, horizon or not: the horizon only
  // ends a run of deliveries.
  if (busy_count_ != 0 &&
      (queue_.empty() || before(busy(0).at, busy(0).seq, queue_.front().at,
                                queue_.front().seq))) {
    // Dispatch link deliveries back to back while the ring's front precedes
    // the stop key: a hand-off from one link to the next never returns
    // through the driver's loop.  The link stops counting as pending while
    // its sink runs.
    do {
      const BusyLink& front = busy(0);
      now_ = front.at;
      ++processed_;
      --pending_;
      front.link->deliver(*this);
    } while (busy_count_ != 0 && key(busy(0).at, busy(0).seq) < stop_key_);
    return true;
  }
  if (queue_.empty()) return false;
  const Event e = queue_.pop();
  refresh_stop_key();
  now_ = e.at;
  ++processed_;
  --pending_;
  e.handler->on_event(*this, e.kind, e.a, e.b);
  return true;
}

void Simulation::run() {
  while (step()) {
  }
}

SimTime Simulation::next_time() const {
  if (busy_count_ == 0) return queue_.next_time();
  if (queue_.empty()) return ring_[head_].at;
  return std::min(ring_[head_].at, queue_.front().at);
}

void Simulation::run_until(SimTime deadline) {
  // Bound link deliveries at the deadline so neither an inline drain nor
  // step()'s run of deliveries dispatches arrivals past it.
  const SimTime saved_horizon = batch_horizon_;
  set_batch_horizon(deadline);
  while (!empty() && next_time() <= deadline) {
    step();
  }
  set_batch_horizon(saved_horizon);
  if (now_ < deadline) now_ = deadline;
}

}  // namespace sss::simnet
