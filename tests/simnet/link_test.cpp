// Tests for the bottleneck link: serialization, propagation, drop-tail
// semantics, counters, and utilization measurement.
#include "simnet/link.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace sss::simnet {
namespace {

class CollectingSink : public PacketSink {
 public:
  const RouteStep route{nullptr, this};  // the terminal step: deliver here
  std::vector<std::pair<SimTime, Packet>> deliveries;
  void on_packet(Simulation& sim, const Packet& packet) override {
    deliveries.emplace_back(sim.now(), packet);
  }
};

LinkConfig test_link(double gbps = 8.0, double prop_ms = 1.0, double buffer_mb = 1.0) {
  LinkConfig cfg;
  cfg.capacity = units::DataRate::gigabits_per_second(gbps);
  cfg.propagation_delay = units::Seconds::millis(prop_ms);
  cfg.buffer = units::Bytes::megabytes(buffer_mb);
  return cfg;
}

TEST(Link, RejectsBadConfig) {
  LinkConfig bad = test_link();
  bad.capacity = units::DataRate::bytes_per_second(0.0);
  EXPECT_THROW(Link{bad}, std::invalid_argument);
  bad = test_link();
  bad.propagation_delay = units::Seconds::of(-1.0);
  EXPECT_THROW(Link{bad}, std::invalid_argument);
  bad = test_link();
  bad.buffer = units::Bytes::of(-1.0);
  EXPECT_THROW(Link{bad}, std::invalid_argument);
}

TEST(Link, DeliveryTimeIsSerializationPlusPropagation) {
  // 1 Gbps, 1 ms propagation: a 1250-byte packet serializes in 10 us.
  Simulation sim;
  Link link(test_link(1.0, 1.0));
  CollectingSink sink;
  Packet p;
  p.size_bytes = 1250;
  ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  sim.run();
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_EQ(sink.deliveries[0].first, 10'000 + 1'000'000);  // 10 us + 1 ms
}

TEST(Link, BackToBackPacketsSerializeSequentially) {
  Simulation sim;
  Link link(test_link(1.0, 0.0));
  CollectingSink sink;
  Packet p;
  p.size_bytes = 1250;  // 10 us each at 1 Gbps
  ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  sim.run();
  ASSERT_EQ(sink.deliveries.size(), 3u);
  EXPECT_EQ(sink.deliveries[0].first, 10'000);
  EXPECT_EQ(sink.deliveries[1].first, 20'000);
  EXPECT_EQ(sink.deliveries[2].first, 30'000);
}

TEST(Link, FifoOrderPreserved) {
  Simulation sim;
  Link link(test_link());
  CollectingSink sink;
  for (std::uint64_t i = 0; i < 50; ++i) {
    Packet p;
    p.seq = i;
    p.size_bytes = 9000;
    ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  }
  sim.run();
  ASSERT_EQ(sink.deliveries.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(sink.deliveries[i].second.seq, i);
}

TEST(Link, DropTailWhenBacklogExceedsBuffer) {
  // Buffer of 10 KB at 1 Gbps = 80 us of backlog.  Pushing far more than
  // that instantaneously must produce drops.
  Simulation sim;
  Link link(test_link(1.0, 0.0, 0.01));
  CollectingSink sink;
  int accepted = 0;
  int dropped = 0;
  for (int i = 0; i < 100; ++i) {
    Packet p;
    p.size_bytes = 1250;
    if (link.transmit(sim, p, &sink.route)) {
      ++accepted;
    } else {
      ++dropped;
    }
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(accepted, 0);
  EXPECT_EQ(link.counters().packets_dropped, static_cast<std::uint64_t>(dropped));
  EXPECT_EQ(link.counters().packets_forwarded, static_cast<std::uint64_t>(accepted));
  sim.run();
  EXPECT_EQ(sink.deliveries.size(), static_cast<std::size_t>(accepted));
}

TEST(Link, BacklogDrainsOverTime) {
  Simulation sim;
  Link link(test_link(1.0, 0.0, 1.0));
  CollectingSink sink;
  Packet p;
  p.size_bytes = 62'500;  // 0.5 ms of serialization at 1 Gbps
  ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  EXPECT_GT(link.backlog_bytes(sim.now()), 0.0);
  sim.run();
  EXPECT_DOUBLE_EQ(link.backlog_bytes(sim.now()), 0.0);
}

TEST(Link, CountersTrackBytes) {
  Simulation sim;
  Link link(test_link());
  CollectingSink sink;
  Packet p;
  p.size_bytes = 1000;
  ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  EXPECT_EQ(link.counters().bytes_offered, 2000u);
  EXPECT_EQ(link.counters().bytes_forwarded, 2000u);
  EXPECT_EQ(link.counters().bytes_dropped, 0u);
  EXPECT_DOUBLE_EQ(link.loss_rate(), 0.0);
}

TEST(Link, UtilizationSeriesMeasuresLoad) {
  // Fill exactly half a 1-second bucket: 0.5 s x 1 Gbps = 62.5 MB.
  Simulation sim;
  Link link(test_link(1.0, 0.0, 100.0));
  CollectingSink sink;
  const int packets = 1000;  // 1000 x 62.5 KB = 62.5 MB
  for (int i = 0; i < packets; ++i) {
    Packet p;
    p.size_bytes = 62'500;
    ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  }
  sim.run();
  EXPECT_EQ(link.counters().bytes_forwarded, 62'500'000u);
  EXPECT_NEAR(link.mean_utilization(), 0.5, 0.01);
  EXPECT_NEAR(link.peak_utilization(), 0.5, 0.01);
}

// Transmits one packet of `a` bytes at each scheduled instant.
class TimedSender : public EventHandler {
 public:
  TimedSender(Link& link, const RouteStep& next) : link_(link), next_(next) {}
  void send_at(Simulation& sim, SimTime at, std::uint32_t size_bytes) {
    sim.schedule_at(at, *this, 0, size_bytes);
  }
  void on_event(Simulation& sim, int, std::uint64_t a, std::uint64_t) override {
    Packet p;
    p.size_bytes = static_cast<std::uint16_t>(a);
    EXPECT_TRUE(link_.transmit(sim, p, &next_));
  }

 private:
  Link& link_;
  const RouteStep& next_;
};

// 8 Gbps is 1e9 bytes/s, so a bucket's utilization is its bytes / 1e9.
constexpr double kBytesPerSecond = 1e9;

TEST(Link, UtilizationBucketsSplitAtOneSecond) {
  Simulation sim;
  Link link(test_link(8.0, 0.0));
  CollectingSink sink;
  TimedSender sender(link, sink.route);
  sender.send_at(sim, 999'999'000, 1);  // starts at 0.999999 s: bucket 0
  sender.send_at(sim, kNanosPerSecond, 2);
  sim.run();
  EXPECT_DOUBLE_EQ(link.peak_utilization(), 2.0 / kBytesPerSecond);
  EXPECT_DOUBLE_EQ(link.mean_utilization(), 3.0 / 2.0 / kBytesPerSecond);
}

TEST(Link, PeakAndMeanUtilizationOverBucketsWithIdleGap) {
  // Bucket 0 holds 10 + 5 bytes, bucket 1 is idle but still counts in the
  // mean, bucket 2 holds 30: peak 30, mean 45 / 3.
  Simulation sim;
  Link link(test_link(8.0, 0.0));
  CollectingSink sink;
  TimedSender sender(link, sink.route);
  sender.send_at(sim, 0, 10);
  sender.send_at(sim, 500'000'000, 5);
  sender.send_at(sim, 2 * kNanosPerSecond, 30);
  sim.run();
  EXPECT_DOUBLE_EQ(link.peak_utilization(), 30.0 / kBytesPerSecond);
  EXPECT_DOUBLE_EQ(link.mean_utilization(), 15.0 / kBytesPerSecond);
}

TEST(Link, IdleLinkReportsZeroUtilization) {
  const Link link(test_link());
  EXPECT_EQ(link.peak_utilization(), 0.0);
  EXPECT_EQ(link.mean_utilization(), 0.0);
}

TEST(Link, LossRateReflectsDrops) {
  Simulation sim;
  Link link(test_link(1.0, 0.0, 0.001));  // 1 KB buffer: nearly everything drops
  CollectingSink sink;
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.size_bytes = 1250;
    (void)link.transmit(sim, p, &sink.route);
  }
  EXPECT_GT(link.loss_rate(), 0.0);
  EXPECT_LE(link.loss_rate(), 1.0);
}

// Delivery chaining: a busy link keeps exactly ONE outstanding delivery
// event no matter how many packets are in flight — the O(links) queue
// occupancy the event-engine overhaul is built on.
TEST(Link, OneOutstandingDeliveryEventPerBusyLink) {
  Simulation sim;
  Link link(test_link(1.0, 1.0, 10.0));
  CollectingSink sink;
  for (std::uint64_t i = 0; i < 50; ++i) {
    Packet p;
    p.seq = i;
    p.size_bytes = 1250;
    ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  }
  EXPECT_EQ(link.in_flight_count(), 50u);
  EXPECT_TRUE(link.delivery_pending());
  EXPECT_EQ(sim.pending_events(), 1u) << "one delivery event, not one per packet";
  sim.run();
  ASSERT_EQ(sink.deliveries.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(sink.deliveries[i].second.seq, i);
  EXPECT_EQ(link.in_flight_count(), 0u);
  EXPECT_FALSE(link.delivery_pending());
  EXPECT_EQ(sim.pending_events(), 0u);
}

// The chain re-arms after the link drains to idle.
TEST(Link, DeliveryChainRearmsAfterIdle) {
  Simulation sim;
  Link link(test_link(1.0, 0.5));
  CollectingSink sink;
  Packet p;
  p.size_bytes = 1250;
  ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  sim.run();
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_FALSE(link.delivery_pending());
  ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  EXPECT_TRUE(link.delivery_pending());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sink.deliveries.size(), 2u);
}

TEST(Link, ZeroBufferStillPassesOnePacketAtATime) {
  // With a zero buffer a packet arriving while the wire is busy is dropped,
  // but an idle wire accepts.
  Simulation sim;
  Link link(test_link(1.0, 0.0, 0.0));
  CollectingSink sink;
  Packet p;
  p.size_bytes = 1250;
  EXPECT_TRUE(link.transmit(sim, p, &sink.route));
  EXPECT_FALSE(link.transmit(sim, p, &sink.route));  // wire busy, no queue
  sim.run();
  EXPECT_TRUE(link.transmit(sim, p, &sink.route));
  sim.run();
  EXPECT_EQ(sink.deliveries.size(), 2u);
}

// Dispatch order across links and the event queue: deliveries of two links
// and typed events that land on the same nanosecond dispatch in the order
// their sequence numbers were reserved (at transmit() for a delivery, at
// schedule_at() for an event), whichever structure holds them.
TEST(Link, SameInstantDeliveriesAndEventsDispatchInReservationOrder) {
  struct Log {
    std::vector<std::pair<SimTime, std::string>> entries;
  } log;
  struct TaggedSink : PacketSink {
    const RouteStep route{nullptr, this};
    Log* log;
    std::string tag;
    TaggedSink(Log* l, std::string t) : log(l), tag(std::move(t)) {}
    void on_packet(Simulation& sim, const Packet& packet) override {
      log->entries.emplace_back(sim.now(), tag + "#" + std::to_string(packet.seq));
    }
  };
  struct TaggedHandler : EventHandler {
    Log* log;
    explicit TaggedHandler(Log* l) : log(l) {}
    void on_event(Simulation& sim, int kind, std::uint64_t, std::uint64_t) override {
      log->entries.emplace_back(sim.now(), "ev" + std::to_string(kind));
    }
  };
  // 1 Gbps, 1 ms: a 1250-byte packet arrives 1'010'000 ns after an idle
  // transmit at t=0, the next back-to-back one 10 us later.
  constexpr SimTime kFirst = 1'010'000;
  constexpr SimTime kSecond = 1'020'000;
  Simulation sim;
  Link l1(test_link(1.0, 1.0)), l2(test_link(1.0, 1.0));
  TaggedSink s1(&log, "l1"), s2(&log, "l2");
  TaggedHandler handler(&log);
  Packet p;
  p.size_bytes = 1250;
  p.seq = 0;
  ASSERT_TRUE(l1.transmit(sim, p, &s1.route));          // seq 0 @ kFirst
  sim.schedule_at(kFirst, handler, 100);         // seq 1 @ kFirst
  ASSERT_TRUE(l2.transmit(sim, p, &s2.route));          // seq 2 @ kFirst
  p.seq = 1;
  ASSERT_TRUE(l1.transmit(sim, p, &s1.route));          // seq 3 @ kSecond
  sim.schedule_at(kSecond, handler, 101);        // seq 4 @ kSecond
  ASSERT_TRUE(l2.transmit(sim, p, &s2.route));          // seq 5 @ kSecond
  sim.schedule_at(kFirst, handler, 102);         // seq 6 @ kFirst
  EXPECT_EQ(sim.events_scheduled(), 7u);
  EXPECT_EQ(sim.pending_events(), 5u) << "one per busy link plus three events";
  sim.run();
  const std::vector<std::pair<SimTime, std::string>> expected = {
      {kFirst, "l1#0"},  {kFirst, "ev100"},  {kFirst, "l2#0"}, {kFirst, "ev102"},
      {kSecond, "l1#1"}, {kSecond, "ev101"}, {kSecond, "l2#1"}};
  EXPECT_EQ(log.entries, expected);
  EXPECT_EQ(sim.events_processed(), 7u);
  EXPECT_EQ(sim.queue_high_water(), 5u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A sink may re-enter transmit() on the very link delivering to it.  With
// the in-flight ring drained the re-entrant packet starts a fresh chain;
// with packets still in flight it joins the existing chain behind them.
// Either way a busy link counts as one pending event, except while its
// sink runs.
class ReentrantSink : public PacketSink {
 public:
  explicit ReentrantSink(Link& link) : link_(link) {}
  const RouteStep route{nullptr, this};
  std::vector<std::pair<SimTime, std::uint64_t>> deliveries;
  std::vector<std::size_t> pending_in_sink;
  std::vector<bool> chain_pending_in_sink;
  void on_packet(Simulation& sim, const Packet& packet) override {
    deliveries.emplace_back(sim.now(), packet.seq);
    pending_in_sink.push_back(sim.pending_events());
    chain_pending_in_sink.push_back(link_.delivery_pending());
    if (packet.seq < 100) {
      Packet echo = packet;
      echo.seq = packet.seq + 100;
      EXPECT_TRUE(link_.transmit(sim, echo, &route));
    }
  }

 private:
  Link& link_;
};

TEST(Link, SinkReentersTransmitOnDrainedRing) {
  Simulation sim;
  Link link(test_link(1.0, 1.0));
  ReentrantSink sink(link);
  Packet p;
  p.size_bytes = 1250;
  ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  sim.run();
  const std::vector<std::pair<SimTime, std::uint64_t>> expected = {
      {1'010'000, 0}, {2'020'000, 100}};
  EXPECT_EQ(sink.deliveries, expected);
  EXPECT_EQ(sink.pending_in_sink, (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(sink.chain_pending_in_sink, (std::vector<bool>{false, false}));
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.events_scheduled(), 2u);
  EXPECT_EQ(sim.queue_high_water(), 1u);
  EXPECT_FALSE(link.delivery_pending());
}

TEST(Link, SinkReentersTransmitWithPacketsInFlight) {
  Simulation sim;
  Link link(test_link(1.0, 1.0));
  ReentrantSink sink(link);
  Packet p;
  p.size_bytes = 1250;
  for (std::uint64_t i = 0; i < 3; ++i) {
    p.seq = i;
    ASSERT_TRUE(link.transmit(sim, p, &sink.route));
  }
  sim.run();
  // Each original packet's echo is transmitted at its delivery instant,
  // so it arrives one serialization + propagation later; the originals
  // still in flight deliver first.
  const std::vector<std::pair<SimTime, std::uint64_t>> expected = {
      {1'010'000, 0},   {1'020'000, 1},   {1'030'000, 2},
      {2'020'000, 100}, {2'030'000, 101}, {2'040'000, 102}};
  EXPECT_EQ(sink.deliveries, expected);
  EXPECT_EQ(sink.pending_in_sink, (std::vector<std::size_t>{0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(sink.chain_pending_in_sink,
            (std::vector<bool>{true, true, true, true, true, false}));
  EXPECT_EQ(sim.events_processed(), 6u);
  EXPECT_EQ(sim.events_scheduled(), 6u);
  EXPECT_EQ(sim.queue_high_water(), 1u);
  EXPECT_FALSE(link.delivery_pending());
}

// A delivered packet is handed off from its slot in the ring, and a sink
// may transmit that very reference back onto the delivering link.  When
// the ring is exactly full at that moment, the transmit grows the ring and
// moves the slab under the reference.  Here each of the first kRounds
// deliveries sends one fresh twin and then hands its packet back: two in,
// one out, so the in-flight count climbs by one per delivery, and the
// hand-back is always the first transmit to meet each new count.  So it
// is the hand-back that finds the ring exactly full at every size the ring
// passes through (Link pre-sizes it to at most 1024).
//
// Every packet is bracketed by two control events at its expected arrival,
// scheduled just before and just after its transmit.  So the log must read
// before/delivery/after for each packet in transmit order, which pins each
// delivery's (arrival, seq) key as well as its order.  Payloads are checked
// against copies taken at transmit, and in_flight_count() is checked during
// and right after each hand-off.
class HandBackHarness : public PacketSink, public EventHandler {
 public:
  static constexpr int kRounds = 1100;

  // 1 Gbps, 1 ms, 2 MB: the whole climb stays within the drop-tail buffer.
  HandBackHarness() : link_(test_link(1.0, 1.0, 2.0)) {}

  void run() {
    Packet first;
    first.size_bytes = 1250;
    send(first);
    sim_.run();
  }

  void on_packet(Simulation& sim, const Packet& packet) override {
    ASSERT_FALSE(expected_.empty());
    const Expected want = expected_.front();
    expected_.pop_front();
    log_.push_back({sim.now(), 'D', want.index});
    EXPECT_EQ(sim.now(), want.arrival) << want.index;
    EXPECT_EQ(packet.sent_at, want.packet.sent_at) << want.index;
    EXPECT_EQ(packet.seq, want.packet.seq) << want.index;
    EXPECT_EQ(packet.size_bytes, want.packet.size_bytes) << want.index;
    EXPECT_EQ(packet.is_ack, want.packet.is_ack) << want.index;
    EXPECT_EQ(packet.retransmit, want.packet.retransmit) << want.index;
    // The packet keeps its slot until its hand-off returns.
    EXPECT_EQ(link_.in_flight_count(), expected_.size() + 1) << want.index;
    if (delivered_++ >= kRounds) return;
    Packet twin;
    twin.seq = static_cast<std::uint32_t>(sent_);
    twin.size_bytes = static_cast<std::uint16_t>(1000 + 50 * (sent_ % 7));
    twin.sent_at = 3 * static_cast<SimTime>(sent_);
    twin.is_ack = sent_ % 2 == 1;
    twin.retransmit = sent_ % 3 == 0;
    send(twin);    // never meets a full ring: the last hand-back grew it
    send(packet);  // the reference into the ring: not read after this
  }

  void on_event(Simulation& sim, int kind, std::uint64_t index, std::uint64_t) override {
    log_.push_back({sim.now(), static_cast<char>(kind), index});
    // Right after a hand-off its slot is gone.
    if (kind == 'A') {
      EXPECT_EQ(link_.in_flight_count(), expected_.size()) << index;
    }
  }

  struct Entry {
    SimTime at;
    char what;  // 'B'efore, 'D'elivery, 'A'fter
    std::uint64_t index;
    bool operator==(const Entry&) const = default;
  };
  std::vector<Entry> log_;
  std::vector<SimTime> arrivals_;
  std::size_t sent_ = 0;
  int delivered_ = 0;
  Simulation sim_;
  Link link_;

 private:
  struct Expected {
    std::uint64_t index;
    SimTime arrival;
    Packet packet;
  };

  // Transmit `packet` (possibly a reference into the ring) with its
  // expected arrival bracketed by control events.
  void send(const Packet& packet) {
    const Packet copy = packet;
    busy_until_ = std::max(sim_.now(), busy_until_) +
                  transmission_time(copy.size_bytes, link_.config().capacity);
    const SimTime arrival = busy_until_ + to_simtime(link_.config().propagation_delay);
    const std::uint64_t index = sent_++;
    sim_.schedule_at(arrival, *this, 'B', index);
    EXPECT_TRUE(link_.transmit(sim_, packet, &route_)) << index;
    sim_.schedule_at(arrival, *this, 'A', index);
    expected_.push_back({index, arrival, copy});
    arrivals_.push_back(arrival);
  }

  const RouteStep route_{nullptr, this};
  std::deque<Expected> expected_;
  SimTime busy_until_ = 0;
};

TEST(Link, HandBackOntoAFullRingKeepsKeysPayloadsAndOrder) {
  HandBackHarness h;
  h.run();
  ASSERT_EQ(h.sent_, 2u * HandBackHarness::kRounds + 1);
  std::vector<HandBackHarness::Entry> expected;
  for (std::uint64_t k = 0; k < h.sent_; ++k) {
    ASSERT_GT(h.arrivals_[k], k == 0 ? 0 : h.arrivals_[k - 1]) << k;
    for (const char what : {'B', 'D', 'A'}) expected.push_back({h.arrivals_[k], what, k});
  }
  EXPECT_EQ(h.log_, expected);
  EXPECT_EQ(h.link_.counters().packets_dropped, 0u);
  EXPECT_EQ(h.link_.in_flight_count(), 0u);
  EXPECT_FALSE(h.link_.delivery_pending());
  EXPECT_EQ(h.sim_.events_processed(), 3 * h.sent_);
}

}  // namespace
}  // namespace sss::simnet
