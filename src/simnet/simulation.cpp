#include "simnet/simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "simnet/link.hpp"

namespace sss::simnet {

Simulation::Simulation(std::pmr::memory_resource* mem) : queue_(mem), busy_(mem) {}

void Simulation::schedule_at(SimTime at, EventHandler& handler, int kind, std::uint64_t a,
                             std::uint64_t b) {
  if (at < now_) throw std::invalid_argument("Simulation: cannot schedule in the past");
  queue_.schedule(at, handler, kind, a, b);
  ++pending_;
  note_pending();
}

void Simulation::arm_link(Link& link, SimTime at, std::uint64_t seq) {
  // Sift up from a new leaf.  A link armed while another link's sink runs
  // carries a later key than that link's heap-top entry (its arrival is at
  // or after now, its seq fresher), so the delivering link stays on top.
  std::size_t hole = busy_.size();
  busy_.push_back(BusyLink{at, seq, &link});
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!before(at, seq, busy_[parent].at, busy_[parent].seq)) break;
    busy_[hole] = busy_[parent];
    hole = parent;
  }
  busy_[hole] = BusyLink{at, seq, &link};
  ++pending_;
  note_pending();
}

void Simulation::retire_link() {
  const BusyLink last = busy_.back();
  busy_.pop_back();
  if (!busy_.empty()) sift_down(last.at, last.seq, last.link);
}

void Simulation::sift_down(SimTime at, std::uint64_t seq, Link* link) {
  const std::size_t n = busy_.size();
  std::size_t hole = 0;
  for (;;) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n) {
      child += before(busy_[child + 1].at, busy_[child + 1].seq, busy_[child].at,
                      busy_[child].seq);
    }
    if (!before(busy_[child].at, busy_[child].seq, at, seq)) break;
    busy_[hole] = busy_[child];
    hole = child;
  }
  busy_[hole] = BusyLink{at, seq, link};
}

bool Simulation::step() {
  if (!busy_.empty() &&
      (queue_.empty() ||
       before(busy_.front().at, busy_.front().seq, queue_.front().at, queue_.front().seq))) {
    // The link stops counting as pending while its sink runs.
    now_ = busy_.front().at;
    ++processed_;
    --pending_;
    busy_.front().link->deliver(*this);
    return true;
  }
  if (queue_.empty()) return false;
  const Event e = queue_.pop();
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
  if (busy_.empty()) return queue_.next_time();
  if (queue_.empty()) return busy_.front().at;
  return std::min(busy_.front().at, queue_.front().at);
}

void Simulation::run_until(SimTime deadline) {
  // Bound inline link drains at the deadline so a drain cannot deliver
  // arrivals this loop would not have dispatched.
  const SimTime saved_horizon = batch_horizon_;
  batch_horizon_ = deadline;
  while (!empty() && next_time() <= deadline) {
    step();
  }
  batch_horizon_ = saved_horizon;
  if (now_ < deadline) now_ = deadline;
}

}  // namespace sss::simnet
