// Tests for the simulation kernel: clock advance, run modes, typed-event
// scheduling, reentrant scheduling from handlers, and the dispatch order of
// link deliveries against a one-event-per-packet model.
#include "simnet/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "simnet/link.hpp"

namespace sss::simnet {
namespace {

TEST(Simulation, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_DOUBLE_EQ(sim.now_seconds().seconds(), 0.0);
}

// Records the clock at every event it receives.
struct ClockRecorder : EventHandler {
  std::vector<SimTime> seen;
  void on_event(Simulation& sim, int, std::uint64_t, std::uint64_t) override {
    seen.push_back(sim.now());
  }
};

TEST(Simulation, ScheduleAtAdvancesClock) {
  Simulation sim;
  ClockRecorder rec;
  sim.schedule_at(100, rec, 0);
  sim.schedule_at(50, rec, 0);
  sim.run();
  EXPECT_EQ(rec.seen, (std::vector<SimTime>{50, 100}));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulation, CannotScheduleInThePast) {
  struct PastScheduler : EventHandler {
    bool checked = false;
    void on_event(Simulation& sim, int, std::uint64_t, std::uint64_t) override {
      EXPECT_THROW(sim.schedule_at(50, *this, 0), std::invalid_argument);
      checked = true;
    }
  } handler;
  Simulation sim;
  sim.schedule_at(100, handler, 0);
  sim.run();
  EXPECT_TRUE(handler.checked);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  ClockRecorder rec;
  for (SimTime t : {10, 20, 30, 40}) sim.schedule_at(t, rec, 0);
  sim.run_until(25);
  EXPECT_EQ(rec.seen, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.now(), 25);  // clock lands on the deadline
  sim.run();
  EXPECT_EQ(rec.seen, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(Simulation, RunUntilAdvancesClockOnEmptyQueue) {
  Simulation sim;
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulation, StepReturnsFalseWhenDrained) {
  Simulation sim;
  ClockRecorder rec;
  sim.schedule_at(1, rec, 0);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, ReentrantSchedulingFromHandler) {
  // A handler scheduling its own next event from inside on_event must be
  // safe.
  struct Chain : EventHandler {
    int fired = 0;
    void on_event(Simulation& sim, int, std::uint64_t, std::uint64_t) override {
      ++fired;
      if (fired < 100) sim.schedule_at(sim.now() + 1, *this, 0);
    }
  } chain;
  Simulation sim;
  sim.schedule_at(0, chain, 0);
  sim.run();
  EXPECT_EQ(chain.fired, 100);
  EXPECT_EQ(sim.now(), 99);
}

TEST(Simulation, TypedEventsDispatchToHandler) {
  struct Recorder : EventHandler {
    std::vector<std::tuple<int, std::uint64_t, std::uint64_t>> events;
    void on_event(Simulation&, int kind, std::uint64_t a, std::uint64_t b) override {
      events.emplace_back(kind, a, b);
    }
  };
  Simulation sim;
  Recorder rec;
  sim.schedule_at(5, rec, 1, 10, 20);
  sim.schedule_at(3, rec, 2, 30, 40);
  sim.run();
  ASSERT_EQ(rec.events.size(), 2u);
  EXPECT_EQ(rec.events[0], std::make_tuple(2, std::uint64_t{30}, std::uint64_t{40}));
  EXPECT_EQ(rec.events[1], std::make_tuple(1, std::uint64_t{10}, std::uint64_t{20}));
}

TEST(SimTimeConversions, RoundTripAndRounding) {
  EXPECT_EQ(to_simtime(units::Seconds::of(1.0)), kNanosPerSecond);
  EXPECT_EQ(to_simtime(units::Seconds::millis(16.0)), 16'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(kNanosPerSecond).seconds(), 1.0);
  // transmission_time rounds up so packets never overlap.
  const SimTime t =
      transmission_time(9000.0, units::DataRate::gigabits_per_second(25.0));
  EXPECT_GE(static_cast<double>(t) / 1e9, 9000.0 / (25e9 / 8.0) - 1e-12);
}


// --- dispatch order against a one-event-per-packet model -------------------
//
// Every dispatch carries the (time, seq) key it would have had as one event
// per packet: a delivery's key is claimed when its link accepts the packet,
// a control event's when it is scheduled.  The harness records each key as
// it is claimed and each dispatch as it happens; the dispatch log must be
// exactly the sorted list of claimed keys.  It also models the kernel's
// pending count (queued events plus busy links, less the link whose sink is
// running) to check pending_events() at every dispatch and
// queue_high_water() at the end.

struct Key {
  SimTime at;
  std::uint64_t seq;
  auto operator<=>(const Key&) const = default;
};

class DispatchHarness : public EventHandler {
 public:
  // `links` links with seeded random capacities (whole bytes per ns), delays
  // (whole microseconds) and buffers.  Packet sizes and event times fall on
  // coarse grids, so many keys collide on their instant and only the
  // sequence number orders them.
  DispatchHarness(std::uint64_t seed, std::size_t links) : rng_(seed) {
    for (std::size_t i = 0; i < links; ++i) {
      LinkConfig cfg;
      cfg.name = "l" + std::to_string(i);
      cfg.capacity = units::DataRate::bytes_per_second(1e9 * static_cast<double>(1 + pick(4)));
      cfg.propagation_delay = units::Seconds::of(1e-6 * static_cast<double>(pick(6)));
      cfg.buffer = units::Bytes::of(9000.0 * static_cast<double>(2 + pick(8)));
      links_.push_back(std::make_unique<Link>(cfg));
      sinks_.push_back(Sink{this, i});
      busy_until_.push_back(0);
      undelivered_.push_back(0);
      armed_.push_back(false);
    }
    for (Sink& sink : sinks_) steps_.push_back(RouteStep{nullptr, &sink});
  }

  // Seed the world with control events on a 200 ns grid; each starts a
  // burst of packets, so the links go busy during the run.
  void seed_world(Simulation& sim) {
    for (int k = 0; k < 60; ++k) schedule(sim, 200 * static_cast<SimTime>(pick(40)));
  }

  // Call when a run_until slice returns: a link interrupted mid-drain was
  // re-keyed, so it counts as pending again.
  void settle() { rekey_in_service(); }

  std::vector<Key> claimed;     // every key, in claim order
  std::vector<Key> dispatched;  // every key, in dispatch order
  std::size_t model_high_water = 0;
  std::size_t pending_mismatches = 0;
  std::size_t clock_mismatches = 0;
  std::size_t drops = 0;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Sink : PacketSink {
    DispatchHarness* harness;
    std::size_t link;
    Sink(DispatchHarness* h, std::size_t l) : harness(h), link(l) {}
    void on_packet(Simulation& sim, const Packet& packet) override {
      harness->on_delivery(sim, link, packet);
    }
  };

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  std::size_t model_pending() const {
    const auto busy = static_cast<std::size_t>(std::count(armed_.begin(), armed_.end(), true));
    return control_pending_ + busy - (in_service_ != kNone ? 1 : 0);
  }
  void note_pending() { model_high_water = std::max(model_high_water, model_pending()); }
  void rekey_in_service() {
    if (in_service_ == kNone) return;
    in_service_ = kNone;
    note_pending();
  }

  // Transmit a fresh packet onto `link` that will be forwarded `hops` more
  // times after it lands.
  void send(Simulation& sim, std::size_t link, std::uint32_t hops) {
    const std::uint64_t seq = sim.events_scheduled();
    Packet packet;
    packet.seq = static_cast<std::uint32_t>(packet_keys_.size());
    packet.size_bytes = static_cast<std::uint16_t>(1000 * (1 + pick(9)));
    packet_keys_.push_back(Key{0, 0});
    packet_hops_.push_back(hops);
    if (!links_[link]->transmit(sim, packet, &steps_[link])) {
      ++drops;
      return;
    }
    const LinkConfig& cfg = links_[link]->config();
    const SimTime start = std::max(sim.now(), busy_until_[link]);
    busy_until_[link] = start + transmission_time(packet.size_bytes, cfg.capacity);
    const Key key{busy_until_[link] + to_simtime(cfg.propagation_delay), seq};
    packet_keys_[packet.seq] = key;
    claimed.push_back(key);
    if (undelivered_[link]++ == 0) {
      armed_[link] = true;
      note_pending();
    }
  }

  void schedule(Simulation& sim, SimTime at) {
    const Key key{at, sim.events_scheduled()};
    event_keys_.push_back(key);
    claimed.push_back(key);
    sim.schedule_at(at, *this, 0, event_keys_.size() - 1);
    ++control_pending_;
    note_pending();
  }

  // Common bookkeeping at the start of every dispatch.  `link` is the
  // delivering link, or kNone for a control event.
  void on_dispatch(Simulation& sim, const Key& key, std::size_t link) {
    // A link that stopped delivering inline was re-keyed in between.
    if (in_service_ != link) rekey_in_service();
    if (link == kNone) {
      --control_pending_;
    } else if (--undelivered_[link] == 0) {
      armed_[link] = false;  // retired before its sink runs
      in_service_ = kNone;
    } else {
      in_service_ = link;    // still busy, but not pending while it delivers
    }
    if (sim.pending_events() != model_pending()) ++pending_mismatches;
    if (sim.now() != key.at) ++clock_mismatches;
    dispatched.push_back(key);
  }

  void on_delivery(Simulation& sim, std::size_t link, const Packet& packet) {
    on_dispatch(sim, packet_keys_[packet.seq], link);
    const std::uint32_t hops = packet_hops_[packet.seq];
    if (hops > 0) {
      // One in four hand-offs re-enters the link that just delivered.
      const std::size_t next = pick(4) == 0 ? link : pick(links_.size());
      send(sim, next, hops - 1);
    }
    if (pick(16) == 0 && event_keys_.size() < 2000) {
      schedule(sim, sim.now() + 1000 * static_cast<SimTime>(pick(3)));
    }
  }

  void on_event(Simulation& sim, int, std::uint64_t id, std::uint64_t) override {
    on_dispatch(sim, event_keys_[id], kNone);
    const std::uint64_t fresh = 2 + pick(5);
    for (std::uint64_t k = 0; k < fresh; ++k) {
      send(sim, pick(links_.size()), static_cast<std::uint32_t>(pick(7)));
    }
    if (pick(3) == 0 && event_keys_.size() < 2000) {
      schedule(sim, sim.now() + 200 * static_cast<SimTime>(pick(20)));
    }
  }

  std::mt19937_64 rng_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Sink> sinks_;
  std::vector<RouteStep> steps_;         // terminal step to each sink
  std::vector<SimTime> busy_until_;      // model of each link's serializer
  std::vector<std::size_t> undelivered_;
  std::vector<bool> armed_;              // link holds a busy-link entry
  std::size_t in_service_ = kNone;       // delivering link left busy
  std::size_t control_pending_ = 0;
  std::vector<Key> packet_keys_;
  std::vector<std::uint32_t> packet_hops_;
  std::vector<Key> event_keys_;
};

void expect_dispatch_matches_model(const Simulation& sim, const DispatchHarness& h) {
  std::vector<Key> sorted = h.claimed;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(h.dispatched.size(), sorted.size());
  EXPECT_TRUE(h.dispatched == sorted) << "dispatch order differs from (time, seq) order";
  EXPECT_EQ(h.clock_mismatches, 0u);
  EXPECT_EQ(h.pending_mismatches, 0u);
  EXPECT_EQ(sim.events_processed(), h.dispatched.size());
  EXPECT_EQ(sim.events_scheduled(), h.claimed.size());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.queue_high_water(), h.model_high_water);
  EXPECT_TRUE(sim.empty());
}

// 40 links and no reserve_links call: the busy-link storage grows while
// links are busy.  Sinks forward onto other links or back onto their own.
TEST(SimulationDispatch, LinkDeliveriesFollowReservedKeyOrder) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE(seed);
    Simulation sim;
    DispatchHarness harness(seed, 40);
    harness.seed_world(sim);
    sim.run();
    expect_dispatch_matches_model(sim, harness);
    EXPECT_GT(harness.dispatched.size(), 1000u);
    EXPECT_GT(harness.drops, 0u);
  }
}

// The same worlds stopped at many run_until deadlines dispatch in the same
// order: a deadline only interrupts link drains, never reorders them.
TEST(SimulationDispatch, RunUntilSlicesKeepTheOrder) {
  for (const std::uint64_t seed : {1ULL, 4ULL}) {
    SCOPED_TRACE(seed);
    Simulation whole;
    DispatchHarness reference(seed, 40);
    reference.seed_world(whole);
    whole.run();

    Simulation sliced;
    DispatchHarness harness(seed, 40);
    harness.seed_world(sliced);
    std::vector<std::pair<SimTime, std::size_t>> slices;  // deadline, dispatches by then
    for (SimTime deadline = 0; !sliced.empty(); deadline += 1300) {
      sliced.run_until(deadline);
      harness.settle();
      ASSERT_EQ(sliced.now(), deadline);
      slices.emplace_back(deadline, harness.dispatched.size());
    }
    expect_dispatch_matches_model(sliced, harness);
    EXPECT_TRUE(harness.dispatched == reference.dispatched);
    // Each slice ran every key up to its deadline and nothing past it.
    const std::vector<Key>& log = harness.dispatched;
    for (const auto& [deadline, count] : slices) {
      if (count > 0) {
        EXPECT_LE(log[count - 1].at, deadline);
      }
      if (count < log.size()) {
        EXPECT_GT(log[count].at, deadline);
      }
    }
  }
}

// Several busy links with arrivals on both sides of a deadline, some of
// them exactly on it, and a control event just before it.
class HorizonWorld {
 public:
  HorizonWorld() {
    // 8000-byte packets at 1..4 bytes/ns: links 0, 1 and 3 each land one
    // exactly on the deadline, link 2 (2667 ns apart) lands none on it.
    for (int i = 0; i < 4; ++i) {
      LinkConfig cfg;
      cfg.capacity = units::DataRate::bytes_per_second(1e9 * (i + 1));
      cfg.propagation_delay = units::Seconds::of(0.0);
      cfg.buffer = units::Bytes::megabytes(1.0);
      links_.push_back(std::make_unique<Link>(cfg));
    }
    for (auto& link : links_) {
      for (int k = 0; k < 8; ++k) {
        Packet p;
        p.size_bytes = 8000;
        EXPECT_TRUE(link->transmit(sim, p, &to_sink_));
      }
    }
    sim.schedule_at(kDeadline - 1, timer_, 0);
  }

  static constexpr SimTime kDeadline = 16'000;

  // Every delivery and timer instant so far, sorted.
  std::vector<SimTime> seen() const {
    std::vector<SimTime> all = sink_.seen;
    all.insert(all.end(), timer_.seen.begin(), timer_.seen.end());
    std::sort(all.begin(), all.end());
    return all;
  }

  Simulation sim;

 private:
  struct Sink : PacketSink {
    std::vector<SimTime> seen;
    void on_packet(Simulation& s, const Packet&) override { seen.push_back(s.now()); }
  };
  Sink sink_;
  const RouteStep to_sink_{nullptr, &sink_};
  ClockRecorder timer_;
  std::vector<std::unique_ptr<Link>> links_;
};

TEST(SimulationDispatch, RunUntilDeliversExactlyTheArrivalsUpToTheDeadline) {
  HorizonWorld reference;
  reference.sim.run();
  const std::vector<SimTime> all = reference.seen();
  const auto upto = static_cast<std::size_t>(
      std::upper_bound(all.begin(), all.end(), HorizonWorld::kDeadline) - all.begin());
  ASSERT_GE(std::count(all.begin(), all.end(), HorizonWorld::kDeadline), 2);
  ASSERT_LT(upto, all.size());

  HorizonWorld world;
  world.sim.run_until(HorizonWorld::kDeadline);
  EXPECT_EQ(world.seen(), std::vector<SimTime>(all.begin(), all.begin() + upto));
  EXPECT_EQ(world.sim.now(), HorizonWorld::kDeadline);
  EXPECT_EQ(world.sim.events_processed(), upto);
  world.sim.run();
  EXPECT_EQ(world.seen(), all);
}

// The drive loop of a workload (step while the clock has not passed the
// deadline, drains capped at it) dispatches exactly one event past it.
TEST(SimulationDispatch, StepLoopWithHorizonStopsOneEventPastTheDeadline) {
  HorizonWorld reference;
  reference.sim.run();
  const std::vector<SimTime> all = reference.seen();
  const auto upto = static_cast<std::size_t>(
      std::upper_bound(all.begin(), all.end(), HorizonWorld::kDeadline) - all.begin());

  HorizonWorld world;
  world.sim.set_batch_horizon(HorizonWorld::kDeadline);
  while (!world.sim.empty() && world.sim.now() <= HorizonWorld::kDeadline) world.sim.step();
  EXPECT_EQ(world.seen(), std::vector<SimTime>(all.begin(), all.begin() + upto + 1));
  EXPECT_EQ(world.sim.events_processed(), upto + 1);
}
}  // namespace
}  // namespace sss::simnet
