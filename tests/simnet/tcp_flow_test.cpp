// Tests for the TCP flow model: completion, pacing, loss recovery, RTO
// behaviour, and congestion-control invariants.
#include "simnet/tcp_flow.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "owned_route.hpp"

namespace sss::simnet {
namespace {

struct Completion : FlowObserver {
  std::vector<const TcpFlow*> completed;
  void on_flow_complete(Simulation&, const TcpFlow& flow) override {
    completed.push_back(&flow);
  }
};

LinkConfig fast_link(double gbps = 25.0, double prop_ms = 8.0, double buffer_mb = 50.0) {
  LinkConfig cfg;
  cfg.capacity = units::DataRate::gigabits_per_second(gbps);
  cfg.propagation_delay = units::Seconds::millis(prop_ms);
  cfg.buffer = units::Bytes::megabytes(buffer_mb);
  return cfg;
}

TEST(TcpFlow, RejectsBadConstruction) {
  Simulation sim;
  OwnedRoute fwd({fast_link()}), rev({fast_link()});
  EXPECT_THROW(TcpFlow(0, units::Bytes::of(0.0), TcpConfig{}, fwd, rev),
               std::invalid_argument);
  TcpConfig bad;
  bad.mss_bytes = 0;
  EXPECT_THROW(TcpFlow(0, units::Bytes::megabytes(1.0), bad, fwd, rev),
               std::invalid_argument);
}

// Packet's 16-bit size and 32-bit seq bound what a flow may send: past
// either ceiling the constructor refuses rather than truncate a field.
TEST(TcpFlow, RejectsPacketsPastTheNarrowFields) {
  OwnedRoute fwd({fast_link()}), rev({fast_link()});
  TcpConfig widest;
  widest.mss_bytes = 65483;
  widest.header_bytes = 52;
  widest.ack_bytes = 65535;
  EXPECT_NO_THROW(TcpFlow(0, units::Bytes::megabytes(1.0), widest, fwd, rev));
  TcpConfig bad = widest;
  bad.header_bytes = 53;
  EXPECT_THROW(TcpFlow(0, units::Bytes::megabytes(1.0), bad, fwd, rev),
               std::invalid_argument);
  bad = widest;
  bad.ack_bytes = 65536;
  EXPECT_THROW(TcpFlow(0, units::Bytes::megabytes(1.0), bad, fwd, rev),
               std::invalid_argument);
  // 2^32 packets of 1000 bytes (refused before any scoreboard is sized).
  TcpConfig small;
  small.mss_bytes = 1000;
  EXPECT_THROW(TcpFlow(0, units::Bytes::of(4294967296.0 * 1000.0), small, fwd, rev),
               std::invalid_argument);
}

TEST(TcpFlow, StartTwiceThrows) {
  Simulation sim;
  OwnedRoute fwd({fast_link()}), rev({fast_link()});
  TcpFlow flow(0, units::Bytes::megabytes(1.0), TcpConfig{}, fwd, rev);
  flow.start(sim);
  EXPECT_THROW(flow.start(sim), std::logic_error);
}

TEST(TcpFlow, SingleFlowCompletesAndDeliversAllBytes) {
  Simulation sim;
  OwnedRoute fwd({fast_link()}), rev({fast_link()});
  Completion obs;
  TcpFlow flow(1, units::Bytes::megabytes(50.0), TcpConfig{}, fwd, rev, &obs);
  flow.start(sim);
  sim.run();
  ASSERT_EQ(obs.completed.size(), 1u);
  EXPECT_TRUE(flow.complete());
  EXPECT_EQ(flow.retransmit_count(), 0u);  // uncontended: no loss
  // All payload bytes crossed the forward link (headers on top).
  EXPECT_GE(fwd.hop(0).counters().bytes_forwarded, 50e6);
}

TEST(TcpFlow, UncongestedCompletionNearTheoreticalPlusSlowStart) {
  // 0.5 GB on an otherwise idle 25 Gbps link, 16 ms RTT: theoretical 0.16 s;
  // slow start adds a couple hundred ms — the paper's Fig. 2(b) observes
  // ~0.2 s.  Assert the right ballpark (under 0.6 s, above theoretical).
  Simulation sim;
  OwnedRoute fwd({fast_link()}), rev({fast_link()});
  Completion obs;
  TcpFlow flow(1, units::Bytes::gigabytes(0.5), TcpConfig{}, fwd, rev, &obs);
  flow.start(sim);
  sim.run();
  ASSERT_TRUE(flow.complete());
  const double fct = flow.completion_time().seconds();
  EXPECT_GT(fct, 0.16);
  EXPECT_LT(fct, 0.6);
}

TEST(TcpFlow, CompletionTimeNeverBelowTheoretical) {
  for (double mb : {1.0, 8.0, 64.0}) {
    Simulation sim;
    OwnedRoute fwd({fast_link()}), rev({fast_link()});
    TcpFlow flow(1, units::Bytes::megabytes(mb), TcpConfig{}, fwd, rev);
    flow.start(sim);
    sim.run();
    ASSERT_TRUE(flow.complete());
    const double theoretical =
        mb * 1e6 / fwd.hop(0).config().capacity.bps() + 2.0 * 0.008;  // + RTT floor
    EXPECT_GE(flow.completion_time().seconds(), theoretical * 0.99) << "size " << mb;
  }
}

TEST(TcpFlow, RttSamplesNearPathRtt) {
  Simulation sim;
  OwnedRoute fwd({fast_link()}), rev({fast_link()});
  TcpFlow flow(1, units::Bytes::megabytes(10.0), TcpConfig{}, fwd, rev);
  flow.start(sim);
  sim.run();
  ASSERT_GT(flow.min_rtt().seconds(), 0.0);
  // Base RTT 16 ms; queueing can add but idle link keeps it close.
  EXPECT_GE(flow.min_rtt().seconds(), 0.016);
  EXPECT_LT(flow.smoothed_rtt().seconds(), 0.05);
}

TEST(TcpFlow, ManyCompetingFlowsAllComplete) {
  Simulation sim;
  OwnedRoute fwd({fast_link(25.0, 8.0, 10.0)}), rev({fast_link()});
  Completion obs;
  std::vector<std::unique_ptr<TcpFlow>> flows;
  for (std::uint32_t i = 0; i < 16; ++i) {
    flows.push_back(std::make_unique<TcpFlow>(i, units::Bytes::megabytes(20.0), TcpConfig{},
                                              fwd, rev, &obs));
  }
  for (auto& f : flows) f->start(sim);
  sim.run();
  EXPECT_EQ(obs.completed.size(), 16u);
  for (auto& f : flows) EXPECT_TRUE(f->complete());
}

TEST(TcpFlow, CongestionCausesRetransmissions) {
  // Tiny buffer forces drop-tail losses among competing flows in slow start.
  Simulation sim;
  OwnedRoute fwd({fast_link(25.0, 8.0, 0.5)}), rev({fast_link()});
  Completion obs;
  std::vector<std::unique_ptr<TcpFlow>> flows;
  for (std::uint32_t i = 0; i < 8; ++i) {
    flows.push_back(std::make_unique<TcpFlow>(i, units::Bytes::megabytes(50.0), TcpConfig{},
                                              fwd, rev, &obs));
  }
  for (auto& f : flows) f->start(sim);
  sim.run();
  EXPECT_EQ(obs.completed.size(), 8u);
  std::uint64_t retransmits = 0;
  for (auto& f : flows) retransmits += f->retransmit_count();
  EXPECT_GT(retransmits, 0u);
  EXPECT_GT(fwd.hop(0).counters().packets_dropped, 0u);
}

TEST(TcpFlow, CongestedSlowerThanUncongested) {
  auto run_one = [](double buffer_mb, int competitors) {
    Simulation sim;
    OwnedRoute fwd({fast_link(25.0, 8.0, buffer_mb)}), rev({fast_link()});
    std::vector<std::unique_ptr<TcpFlow>> flows;
    for (int i = 0; i < competitors; ++i) {
      flows.push_back(std::make_unique<TcpFlow>(static_cast<std::uint32_t>(i),
                                                units::Bytes::megabytes(50.0), TcpConfig{},
                                                fwd, rev));
    }
    for (auto& f : flows) f->start(sim);
    sim.run();
    double worst = 0.0;
    for (auto& f : flows) worst = std::max(worst, f->completion_time().seconds());
    return worst;
  };
  const double solo = run_one(50.0, 1);
  const double contended = run_one(0.5, 12);
  EXPECT_GT(contended, solo * 2.0);
}

TEST(TcpFlow, LastPartialSegmentDeliveredExactly) {
  // Total not divisible by MSS: last packet is short, flow still completes.
  Simulation sim;
  OwnedRoute fwd({fast_link()}), rev({fast_link()});
  TcpConfig cfg;
  cfg.mss_bytes = 1000;
  cfg.header_bytes = 40;
  TcpFlow flow(1, units::Bytes::of(2500.0), cfg, fwd, rev);
  EXPECT_EQ(flow.total_packets(), 3u);
  flow.start(sim);
  sim.run();
  EXPECT_TRUE(flow.complete());
}

TEST(TcpFlow, SevereLossTriggersRto) {
  // A nearly bufferless link with many simultaneous flows: dupacks cannot
  // always recover (whole windows vanish), so RTOs must fire and flows must
  // STILL complete — the mechanism behind the paper's multi-second tails.
  Simulation sim;
  OwnedRoute fwd({fast_link(1.0, 8.0, 0.05)}), rev({fast_link()});
  std::vector<std::unique_ptr<TcpFlow>> flows;
  for (std::uint32_t i = 0; i < 12; ++i) {
    flows.push_back(std::make_unique<TcpFlow>(i, units::Bytes::megabytes(2.0), TcpConfig{},
                                              fwd, rev));
  }
  for (auto& f : flows) f->start(sim);
  sim.run();
  std::uint64_t rtos = 0;
  for (auto& f : flows) {
    EXPECT_TRUE(f->complete());
    rtos += f->rto_count();
  }
  EXPECT_GT(rtos, 0u);
}

TEST(TcpFlow, WindowCappedByConfig) {
  Simulation sim;
  OwnedRoute fwd({fast_link()}), rev({fast_link()});
  TcpConfig cfg;
  cfg.max_cwnd_packets = 16.0;
  TcpFlow flow(1, units::Bytes::megabytes(20.0), cfg, fwd, rev);
  flow.start(sim);
  sim.run();
  EXPECT_TRUE(flow.complete());
  EXPECT_LE(flow.cwnd(), 16.0 + 1e-9);
}

}  // namespace
}  // namespace sss::simnet
