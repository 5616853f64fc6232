// simulation.hpp — the simulation kernel.
//
// Owns the virtual clock and drives handlers until nothing is pending or a
// stop condition fires.  Two structures hold what is pending, and step()
// dispatches whichever front carries the earlier (time, seq) key:
//
//   - busy links — a ring with one entry per Link that has packets in
//     flight, kept sorted on its front packet's (arrival, seq).  Link
//     deliveries are almost every event of a packet simulation, so they
//     never touch the event queue: a delivery is a non-virtual
//     Link::deliver call on the ring's front.  Busy links take turns in
//     nearly round-robin order, so a re-keyed link almost always belongs at
//     the back, and inserting from the back costs one compare.
//   - the EventQueue — typed control-plane events (RTO timers, flow starts,
//     scheduler pumps, background arrivals).
//
// Both draw sequence numbers from one counter (a link reserves its
// delivery's at transmit time), so the total order, events_processed, and
// every seed-pinned golden are exactly those of one event per packet.
//
// A run of deliveries stops at the stop key: the earlier of the control
// queue's front key and the batch horizon (keyed (horizon, UINT64_MAX), so
// a delivery at the horizon itself still runs).  The key is cached and
// refreshed only where either input changes — a schedule, a control pop, a
// new horizon, a few thousand times per sweep cell — so each of the tens
// of millions of deliveries checks one 128-bit compare against it.
#pragma once

#include <algorithm>
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

  // Size the busy-link ring for a world of `links` links, so arming a link
  // never allocates (Workload::prepare calls this once).  The ring also
  // grows on demand.
  void reserve_links(std::size_t links);

  // Ceiling (>= 0) for dispatching link deliveries back to back (see step()
  // and Link::deliver).  Drivers that stop at a deadline (Workload::drive,
  // run_until) set this so a run of deliveries never passes the point
  // where one-event-per-step dispatch would have stopped.
  void set_batch_horizon(SimTime horizon) {
    batch_horizon_ = horizon;
    refresh_stop_key();
  }

  // Run one control event, or a run of link deliveries: the earliest one,
  // then every delivery that still precedes the control queue's front and
  // lies within the batch horizon.  Returns false when nothing is pending.
  bool step();
  // Run until nothing is pending.
  void run();
  // Run everything with time <= deadline; the clock is advanced to at least
  // `deadline` even if nothing is pending earlier.
  void run_until(SimTime deadline);

  [[nodiscard]] bool empty() const { return queue_.empty() && busy_count_ == 0; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] std::uint64_t events_scheduled() const { return queue_.scheduled_total(); }
  // Pending events: queued events plus one per busy link, except the link
  // whose sink is running.  O(links + flows), not O(packets in flight).
  [[nodiscard]] std::size_t pending_events() const { return pending_; }
  // Largest pending_events() ever observed.
  [[nodiscard]] std::size_t queue_high_water() const { return high_water_; }

 private:
  // Link arms, drains and retires its own ring entry (link.hpp).
  friend class Link;

  struct BusyLink {
    SimTime at;          // front in-flight packet's arrival
    std::uint64_t seq;   // its reserved sequence number
    Link* link;
  };
  // A (time, seq) key as one 128-bit integer (times are never negative),
  // so comparing two keys is two instructions and no branch.
  using Key = unsigned __int128;
  [[nodiscard]] static Key key(SimTime at, std::uint64_t seq) {
    return (Key(static_cast<std::uint64_t>(at)) << 64) | seq;
  }
  [[nodiscard]] static bool before(SimTime at, std::uint64_t seq, SimTime other_at,
                                   std::uint64_t other_seq) {
    return key(at, seq) < key(other_at, other_seq);
  }
  // The i-th busy link in key order (0: the front).
  [[nodiscard]] BusyLink& busy(std::size_t i) { return ring_[(head_ + i) & mask_]; }
  // Recompute stop_key_ from the batch horizon and the control queue's
  // front; called wherever either changes.
  void refresh_stop_key() {
    stop_key_ = key(batch_horizon_, std::numeric_limits<std::uint64_t>::max());
    if (!queue_.empty()) {
      const Event& front = queue_.front();
      stop_key_ = std::min(stop_key_, key(front.at, front.seq));
    }
  }

  // An idle link went busy with its front delivery keyed (at, seq).
  void arm_link(Link& link, SimTime at, std::uint64_t seq);
  // The delivering link (the ring's front) drained: drop it before its
  // last sink runs, so a re-entrant transmit() re-arms it.
  void retire_link() {
    head_ = (head_ + 1) & mask_;
    --busy_count_;
  }
  // The delivering link's sink returned and its next packet is keyed
  // (at, seq).  If that key still precedes the stop key and the runner-up
  // link, advance the clock, count the event and return true: the link
  // delivers it inline.  Otherwise re-key the link: it leaves the front and
  // is inserted again behind every earlier key.
  //
  // While a link drains inline its front entry keeps the key it was
  // dispatched with.  That is harmless: keys only grow along a link, and a
  // link armed meanwhile carries a later key still, so it is inserted
  // behind that entry, which stays in front until the re-key or
  // retire_link removes it.
  bool continue_drain(SimTime at, std::uint64_t seq) {
    if (key(at, seq) < stop_key_ &&
        (busy_count_ < 2 || before(at, seq, busy(1).at, busy(1).seq))) {
      now_ = at;
      ++processed_;
      return true;
    }
    Link* const link = busy(0).link;
    retire_link();
    insert_busy(at, seq, link);
    ++pending_;
    note_pending();
    return false;
  }
  // Place the entry (at, seq, link) in key order, scanning from the back.
  // Precondition: the ring has a free slot.  (Scalars, not a BusyLink: a
  // by-value struct travels through the stack, and reloading it stalled
  // store forwarding on the hot path.)
  void insert_busy(SimTime at, std::uint64_t seq, Link* link);
  void note_pending() {
    if (pending_ > high_water_) high_water_ = pending_;
  }
  [[nodiscard]] SimTime next_time() const;

  EventQueue queue_;
  // Busy links sorted on (at, seq): busy_count_ entries from head_, in a
  // power-of-two slab indexed through mask_.
  std::pmr::vector<BusyLink> ring_;
  std::size_t head_ = 0;
  std::size_t busy_count_ = 0;
  std::size_t mask_ = 0;
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  SimTime batch_horizon_ = std::numeric_limits<SimTime>::max();
  // min((batch_horizon_, UINT64_MAX), the control queue's front key): a run
  // of deliveries continues while its next key is below this.
  Key stop_key_ = key(batch_horizon_, std::numeric_limits<std::uint64_t>::max());
  // pending_events().  Not adjacent to processed_: step() updates both, and
  // the compiler would otherwise merge them into one 16-byte load that
  // stalls behind the separate 8-byte stores.
  std::size_t pending_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace sss::simnet
