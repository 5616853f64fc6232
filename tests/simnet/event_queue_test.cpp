// Tests for the event queue: ordering, FIFO tie-breaking, error paths,
// order across power-of-two time boundaries and far horizons, scheduling
// below earlier-popped times, and a randomized differential check against a
// reference binary heap.  (How link deliveries interleave with queued
// events is pinned at the link level in link_test.cpp.)
#include "simnet/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <stdexcept>
#include <vector>

namespace sss::simnet {
namespace {

class RecordingHandler : public EventHandler {
 public:
  void on_event(Simulation&, int, std::uint64_t, std::uint64_t) override {}
};

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  RecordingHandler h;
  q.schedule(300, h, 3);
  q.schedule(100, h, 1);
  q.schedule(200, h, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().kind, 1);
  EXPECT_EQ(q.pop().kind, 2);
  EXPECT_EQ(q.pop().kind, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  EventQueue q;
  RecordingHandler h;
  for (int i = 0; i < 100; ++i) q.schedule(500, h, i);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.pop().kind, i) << "tie-break must preserve scheduling order";
  }
}

TEST(EventQueue, InterleavedTimesAndTies) {
  EventQueue q;
  RecordingHandler h;
  q.schedule(10, h, 0);
  q.schedule(5, h, 1);
  q.schedule(10, h, 2);
  q.schedule(5, h, 3);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop().kind);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2}));
}

TEST(EventQueue, NextTimePeeksEarliest) {
  EventQueue q;
  RecordingHandler h;
  q.schedule(42, h, 0);
  q.schedule(7, h, 0);
  EXPECT_EQ(q.next_time(), 7);
}

TEST(EventQueue, RejectsNegativeTime) {
  EventQueue q;
  RecordingHandler h;
  EXPECT_THROW(q.schedule(-1, h, 0), std::invalid_argument);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), std::logic_error);
}

TEST(EventQueue, ArgumentsCarriedThrough) {
  EventQueue q;
  RecordingHandler h;
  q.schedule(1, h, 9, 111, 222);
  const Event e = q.pop();
  EXPECT_EQ(e.kind, 9);
  EXPECT_EQ(e.a, 111u);
  EXPECT_EQ(e.b, 222u);
  EXPECT_EQ(e.handler, &h);
}

TEST(EventQueue, ScheduledTotalCounts) {
  EventQueue q;
  RecordingHandler h;
  EXPECT_EQ(q.scheduled_total(), 0u);
  q.schedule(1, h, 0);
  q.schedule(2, h, 0);
  EXPECT_EQ(q.scheduled_total(), 2u);
}

// --- order across time scales ----------------------------------------------

// Times straddling power-of-two boundaries must pop in global (time, seq)
// order.
TEST(EventQueue, BucketAndWindowBoundaryTimes) {
  constexpr SimTime kBucket = SimTime{1} << 14;
  constexpr SimTime kWindow = SimTime{1} << 24;
  EventQueue q;
  RecordingHandler h;
  const std::vector<SimTime> times = {
      kWindow + 1, kBucket,     kBucket - 1, 0,           kWindow - 1,
      kWindow,     kBucket + 1, 2 * kWindow, kWindow + kBucket};
  for (std::size_t i = 0; i < times.size(); ++i) {
    q.schedule(times[i], h, static_cast<int>(i));
  }
  std::vector<SimTime> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  for (const SimTime expected : sorted) EXPECT_EQ(q.pop().at, expected);
  EXPECT_TRUE(q.empty());
}

// Events seconds away (RTO timers, client spawns) interleave correctly with
// near ones.
TEST(EventQueue, FarHorizonSpillAndRefill) {
  EventQueue q;
  RecordingHandler h;
  q.schedule(1'000'000'000, h, 2);  // a second out
  q.schedule(100, h, 0);
  q.schedule(3'000'000'000, h, 3);
  q.schedule(200'000, h, 1);
  EXPECT_EQ(q.next_time(), 100);
  EXPECT_EQ(q.pop().kind, 0);
  EXPECT_EQ(q.pop().kind, 1);
  EXPECT_EQ(q.next_time(), 1'000'000'000);
  EXPECT_EQ(q.pop().kind, 2);
  EXPECT_EQ(q.pop().kind, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SimultaneousFarEventsStayFifo) {
  EventQueue q;
  RecordingHandler h;
  for (int i = 0; i < 64; ++i) q.schedule(5'000'000'000, h, i);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(q.pop().kind, i);
}

// Scheduling below an already-popped time (legal for raw-queue users such as
// the microbench, though Simulation never does it) still pops in order.
TEST(EventQueue, RewindBelowCurrentWindow) {
  EventQueue q;
  RecordingHandler h;
  q.schedule(2'000'000'000, h, 1);
  EXPECT_EQ(q.pop().kind, 1);
  q.schedule(5, h, 2);
  q.schedule(2'100'000'000, h, 3);
  q.schedule(7, h, 4);
  EXPECT_EQ(q.pop().kind, 2);
  EXPECT_EQ(q.pop().kind, 4);
  EXPECT_EQ(q.pop().kind, 3);
  EXPECT_TRUE(q.empty());
}

// Interleaved schedule/pop with inserts earlier than the remaining events.
TEST(EventQueue, InterleavedScheduleAndPop) {
  EventQueue q;
  RecordingHandler h;
  q.schedule(10, h, 0);
  q.schedule(30, h, 1);
  q.schedule(50, h, 2);
  EXPECT_EQ(q.pop().kind, 0);
  q.schedule(20, h, 3);  // earlier than the remaining events
  q.schedule(40, h, 4);
  EXPECT_EQ(q.pop().kind, 3);
  EXPECT_EQ(q.pop().kind, 1);
  q.schedule(45, h, 5);
  EXPECT_EQ(q.pop().kind, 4);
  EXPECT_EQ(q.pop().kind, 5);
  EXPECT_EQ(q.pop().kind, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, HighWaterMarkTracksPeakOccupancy) {
  EventQueue q;
  RecordingHandler h;
  EXPECT_EQ(q.high_water_mark(), 0u);
  for (int i = 0; i < 10; ++i) q.schedule(i, h, i);
  for (int i = 0; i < 10; ++i) (void)q.pop();
  q.schedule(1, h, 0);
  EXPECT_EQ(q.high_water_mark(), 10u);
}

// Differential test: any interleaving of schedule/pop must reproduce the
// (time, seq) total order of a reference binary heap exactly — this is the
// determinism contract every seed-pinned golden relies on.
TEST(EventQueue, MatchesReferenceHeapUnderRandomWorkload) {
  struct Ref {
    SimTime at;
    std::uint64_t seq;
  };
  struct RefLater {
    bool operator()(const Ref& x, const Ref& y) const {
      if (x.at != y.at) return x.at > y.at;
      return x.seq > y.seq;
    }
  };
  EventQueue q;
  RecordingHandler h;
  std::priority_queue<Ref, std::vector<Ref>, RefLater> ref;
  std::mt19937_64 rng(7);
  std::uint64_t seq = 0;
  SimTime low_bound = 0;  // mimic Simulation: never schedule before "now"
  for (int step = 0; step < 20'000; ++step) {
    const bool do_pop = !ref.empty() && rng() % 3 == 0;
    if (do_pop) {
      const Ref expected = ref.top();
      ref.pop();
      const Event got = q.pop();
      ASSERT_EQ(got.at, expected.at) << "step " << step;
      ASSERT_EQ(got.seq, expected.seq) << "step " << step;
      low_bound = got.at;
    } else {
      // Mix of packet-scale, RTT-scale, and RTO-scale offsets.
      const std::uint64_t r = rng() % 100;
      SimTime offset;
      if (r < 60) {
        offset = static_cast<SimTime>(rng() % 20'000);
      } else if (r < 90) {
        offset = static_cast<SimTime>(rng() % 2'000'000);
      } else {
        offset = static_cast<SimTime>(rng() % 3'000'000'000);
      }
      const SimTime at = low_bound + offset;
      q.schedule(at, h, 0);
      ref.push(Ref{at, seq++});
    }
  }
  while (!ref.empty()) {
    const Ref expected = ref.top();
    ref.pop();
    const Event got = q.pop();
    ASSERT_EQ(got.at, expected.at);
    ASSERT_EQ(got.seq, expected.seq);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace sss::simnet
