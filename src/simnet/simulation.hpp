// simulation.hpp — the simulation kernel.
//
// Owns the virtual clock and drives handlers until nothing is pending or a
// stop condition fires.  Two structures hold what is pending, and step()
// dispatches whichever front carries the earlier (time, seq) key:
//
//   - busy links — a small binary min-heap with one entry per Link that has
//     packets in flight, keyed on its front packet's (arrival, seq).  Link
//     deliveries are almost every event of a packet simulation, so they
//     never touch the event queue: a delivery is a non-virtual
//     Link::deliver call on the heap top.
//   - the EventQueue — typed control-plane events (RTO timers, flow starts,
//     scheduler pumps, background arrivals).
//
// Both draw sequence numbers from one counter (a link reserves its
// delivery's at transmit time), so the total order, events_processed, and
// every seed-pinned golden are exactly those of one event per packet.
#pragma once

#include <cstdint>
#include <limits>
#include <memory_resource>
#include <vector>

#include "simnet/event_queue.hpp"
#include "simnet/time.hpp"

namespace sss::simnet {

class Link;

class Simulation {
 public:
  // Event-queue and busy-link storage draw from `mem` (default: the global
  // heap); a sweep cell passes its Arena so their growth stays off the heap.
  explicit Simulation(
      std::pmr::memory_resource* mem = std::pmr::get_default_resource());
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] units::Seconds now_seconds() const { return to_seconds(now_); }

  void schedule_at(SimTime at, EventHandler& handler, int kind, std::uint64_t a = 0,
                   std::uint64_t b = 0);

  // Claim the sequence number of a link delivery at transmit time, exactly
  // where a per-packet schedule_at would have claimed it.
  [[nodiscard]] std::uint64_t reserve_event_seq() { return queue_.reserve_seq(); }

  // Size the busy-link heap for a world of `links` links, so arming a link
  // never allocates (Workload::prepare calls this once).
  void reserve_links(std::size_t links) { busy_.reserve(links); }

  // Ceiling for a link's inline drain (see Link::deliver).  Drivers that
  // stop at a deadline (Workload::drive, run_until) set this so a drain
  // never runs past the point where one-event-per-step dispatch would have
  // stopped.
  void set_batch_horizon(SimTime horizon) { batch_horizon_ = horizon; }

  // Run one event or link delivery.  Returns false when nothing is pending.
  bool step();
  // Run until nothing is pending.
  void run();
  // Run everything with time <= deadline; the clock is advanced to at least
  // `deadline` even if nothing is pending earlier.
  void run_until(SimTime deadline);

  [[nodiscard]] bool empty() const { return queue_.empty() && busy_.empty(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] std::uint64_t events_scheduled() const { return queue_.scheduled_total(); }
  // Pending events: queued events plus one per busy link, except the link
  // whose sink is running.  O(links + flows), not O(packets in flight).
  [[nodiscard]] std::size_t pending_events() const { return pending_; }
  // Largest pending_events() ever observed.
  [[nodiscard]] std::size_t queue_high_water() const { return high_water_; }

 private:
  // Link arms, drains and retires its own heap entry (link.hpp).
  friend class Link;

  struct BusyLink {
    SimTime at;          // front in-flight packet's arrival
    std::uint64_t seq;   // its reserved sequence number
    Link* link;
  };
  // (at, seq) < (other_at, other_seq) as one 128-bit comparison (times are
  // never negative): two instructions and no branch, where heap comparisons
  // are unpredictable.
  [[nodiscard]] static bool before(SimTime at, std::uint64_t seq, SimTime other_at,
                                   std::uint64_t other_seq) {
    using Key = unsigned __int128;
    return ((Key(static_cast<std::uint64_t>(at)) << 64) | seq) <
           ((Key(static_cast<std::uint64_t>(other_at)) << 64) | other_seq);
  }

  // An idle link went busy with its front delivery keyed (at, seq).
  void arm_link(Link& link, SimTime at, std::uint64_t seq);
  // The delivering link (the heap top) drained: drop it before its last
  // sink runs, so a re-entrant transmit() re-arms it.
  void retire_link();
  // The delivering link's sink returned and its next packet is keyed
  // (at, seq).  If that key still precedes every other pending key and the
  // batch horizon, advance the clock, count the event and return true: the
  // link delivers it inline.  Otherwise re-key the link in the heap.
  //
  // While a link drains inline its heap-top entry keeps the key it was
  // dispatched with.  That is harmless: keys only grow along a link, and a
  // link armed meanwhile carries a later key still, so the entry stays on
  // top until the re-key or retire_link replaces it.
  bool continue_drain(SimTime at, std::uint64_t seq) {
    const std::size_t n = busy_.size();
    if (at <= batch_horizon_ &&
        (queue_.empty() || before(at, seq, queue_.front().at, queue_.front().seq)) &&
        (n < 2 || before(at, seq, busy_[1].at, busy_[1].seq)) &&
        (n < 3 || before(at, seq, busy_[2].at, busy_[2].seq))) {
      now_ = at;
      ++processed_;
      return true;
    }
    sift_down(at, seq, busy_.front().link);
    ++pending_;
    note_pending();
    return false;
  }
  // Place the entry (at, seq, link) into the heap, starting from the root's
  // slot.  (Scalars, not a BusyLink: a by-value struct travels through the
  // stack, and reloading it stalled store forwarding on the hot path.)
  void sift_down(SimTime at, std::uint64_t seq, Link* link);
  void note_pending() {
    if (pending_ > high_water_) high_water_ = pending_;
  }
  [[nodiscard]] SimTime next_time() const;

  EventQueue queue_;
  std::pmr::vector<BusyLink> busy_;  // min-heap on (at, seq)
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  SimTime batch_horizon_ = std::numeric_limits<SimTime>::max();
  // pending_events().  Not adjacent to processed_: step() updates both, and
  // the compiler would otherwise merge them into one 16-byte load that
  // stalls behind the separate 8-byte stores.
  std::size_t pending_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace sss::simnet
