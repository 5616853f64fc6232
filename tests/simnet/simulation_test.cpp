// Tests for the simulation kernel: clock advance, run modes, typed-event
// scheduling, and reentrant scheduling from handlers.
#include "simnet/simulation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

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

}  // namespace
}  // namespace sss::simnet
