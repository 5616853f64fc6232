// Tests for multi-hop routing over Routes (arrays of live links):
// per-hop packet conservation, one-hop equivalence with the single-link
// simulator (the refactor's regression guarantee), mid-path drops, and hop
// metric snapshots.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "owned_route.hpp"
#include "simnet/metrics.hpp"
#include "simnet/tcp_flow.hpp"
#include "simnet/workload.hpp"

namespace sss::simnet {
namespace {

LinkConfig make_link(const char* name, double gbps, double prop_ms, double buffer_mb) {
  LinkConfig cfg;
  cfg.name = name;
  cfg.capacity = units::DataRate::gigabits_per_second(gbps);
  cfg.propagation_delay = units::Seconds::millis(prop_ms);
  cfg.buffer = units::Bytes::megabytes(buffer_mb);
  return cfg;
}

std::vector<LinkConfig> chain3(double edge_gbps, double wan_gbps, double ingest_gbps,
                               double buffer_mb = 5.0) {
  return {make_link("edge", edge_gbps, 0.1, buffer_mb),
          make_link("wan", wan_gbps, 7.5, buffer_mb),
          make_link("ingest", ingest_gbps, 0.4, buffer_mb)};
}

// The ACK/return direction of `hops`: reverse_link() of each hop, in
// reverse order.
std::vector<LinkConfig> reverse_chain(const std::vector<LinkConfig>& hops) {
  std::vector<LinkConfig> out;
  for (auto it = hops.rbegin(); it != hops.rend(); ++it) out.push_back(reverse_link(*it));
  return out;
}

TEST(Route, TcpFlowRejectsEmptyAndNullRoutes) {
  const OwnedRoute hop({make_link("hop", 2.5, 1.0, 5.0)});
  const std::vector<Link*> none;
  const std::vector<Link*> null_hop = {nullptr};
  const std::vector<Link*> null_tail = {&hop.hop(0), nullptr};
  const auto mb = units::Bytes::megabytes(1.0);
  EXPECT_THROW(TcpFlow(0, mb, TcpConfig{}, none, hop), std::invalid_argument);
  EXPECT_THROW(TcpFlow(0, mb, TcpConfig{}, hop, none), std::invalid_argument);
  EXPECT_THROW(TcpFlow(0, mb, TcpConfig{}, null_hop, hop), std::invalid_argument);
  EXPECT_THROW(TcpFlow(0, mb, TcpConfig{}, hop, null_tail), std::invalid_argument);
}

// One bottleneck and summed-delay rule, whether it reads hop configs or a
// Route's live links.
TEST(Route, BottleneckAndDelayAggregates) {
  const std::vector<LinkConfig> hops = chain3(25.0, 10.0, 40.0);
  const OwnedRoute route(hops);
  EXPECT_EQ(Route(route).size(), 3u);
  EXPECT_EQ(bottleneck_hop_index(Route(route)), 1u);
  EXPECT_EQ(bottleneck_hop_index(hops), 1u);
  EXPECT_NEAR(total_propagation_delay(Route(route)).ms(), 8.0, 1e-12);
  EXPECT_EQ(total_propagation_delay(Route(route)).seconds(),
            total_propagation_delay(hops).seconds());
}

TEST(Route, BottleneckTieBreaksToFirstHop) {
  const OwnedRoute route(chain3(25.0, 25.0, 25.0));
  EXPECT_EQ(bottleneck_hop_index(Route(route)), 0u);
  EXPECT_THROW((void)bottleneck_hop_index(Route()), std::invalid_argument);
}

TEST(Route, FlowCompletesOverThreeHops) {
  Simulation sim;
  OwnedRoute fwd(chain3(2.5, 2.5, 2.5));
  OwnedRoute rev(reverse_chain(chain3(2.5, 2.5, 2.5)));
  TcpFlow flow(1, units::Bytes::megabytes(10.0), TcpConfig{}, fwd, rev);
  flow.start(sim);
  sim.run();
  ASSERT_TRUE(flow.complete());
  // All payload bytes crossed every hop.
  for (std::size_t h = 0; h < fwd.hop_count(); ++h) {
    EXPECT_GE(fwd.hop(h).counters().bytes_forwarded, 10e6) << "hop " << h;
  }
  // RTT floor: sum of one-way delays both directions.
  EXPECT_GE(flow.min_rtt().seconds(), 2.0 * total_propagation_delay(Route(fwd)).seconds());
}

// The per-hop packet-conservation invariant: at every hop, offered =
// forwarded + dropped, and everything a hop forwards is offered to the
// next hop (once the simulation drains, nothing is in flight).
TEST(Route, PacketConservationAtEveryHop) {
  Simulation sim;
  // Tight mid-path buffer under 8 competing flows: real congestion, drops
  // at the WAN hop.
  OwnedRoute fwd(chain3(2.5, 1.0, 2.5, 0.1));
  OwnedRoute rev(reverse_chain(chain3(2.5, 1.0, 2.5, 0.1)));
  std::vector<std::unique_ptr<TcpFlow>> flows;
  for (std::uint32_t i = 0; i < 8; ++i) {
    flows.push_back(
        std::make_unique<TcpFlow>(i, units::Bytes::megabytes(5.0), TcpConfig{}, fwd, rev));
  }
  for (auto& f : flows) f->start(sim);
  sim.run();
  for (auto& f : flows) ASSERT_TRUE(f->complete());

  std::uint64_t dropped = 0;
  for (std::size_t h = 0; h < fwd.hop_count(); ++h) dropped += fwd.hop(h).counters().packets_dropped;
  EXPECT_GT(dropped, 0u);  // the squeeze actually bit
  for (const OwnedRoute* path : {&fwd, &rev}) {
    for (std::size_t h = 0; h < path->hop_count(); ++h) {
      const LinkCounters& c = path->hop(h).counters();
      EXPECT_EQ(c.packets_offered, c.packets_forwarded + c.packets_dropped)
          << "hop " << h;
      EXPECT_EQ(c.bytes_offered, c.bytes_forwarded + c.bytes_dropped) << "hop " << h;
      if (h + 1 < path->hop_count()) {
        EXPECT_EQ(c.packets_forwarded, path->hop(h + 1).counters().packets_offered)
            << "hop " << h << " -> " << h + 1;
      }
    }
  }
}

// The refactor's regression guarantee: a one-hop path_hops run is bit-identical
// to the legacy single-link configuration (same config.link, empty
// path_hops), for every recorded metric.
TEST(Route, OneHopRunMatchesSingleLinkBitExactly) {
  WorkloadConfig legacy;
  legacy.duration = units::Seconds::of(2.0);
  legacy.concurrency = 3;
  legacy.parallel_flows = 2;
  legacy.transfer_size = units::Bytes::megabytes(40.0);
  legacy.link = make_link("fabric", 2.5, 8.0, 4.0);
  legacy.background_load = 0.3;

  WorkloadConfig pathed = legacy;
  pathed.path_hops = {legacy.link};

  const ExperimentResult a = run_experiment(legacy);
  const ExperimentResult b = run_experiment(pathed);

  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.t_worst_s(), b.t_worst_s());
  EXPECT_EQ(a.metrics.mean_client_fct_s(), b.metrics.mean_client_fct_s());
  EXPECT_EQ(a.metrics.loss_rate, b.metrics.loss_rate);
  EXPECT_EQ(a.metrics.packets_dropped, b.metrics.packets_dropped);
  EXPECT_EQ(a.metrics.packets_forwarded, b.metrics.packets_forwarded);
  EXPECT_EQ(a.metrics.total_retransmits, b.metrics.total_retransmits);
  ASSERT_EQ(a.metrics.flows.size(), b.metrics.flows.size());
  for (std::size_t i = 0; i < a.metrics.flows.size(); ++i) {
    EXPECT_EQ(a.metrics.flows[i].end_s, b.metrics.flows[i].end_s) << "flow " << i;
  }
  ASSERT_EQ(b.metrics.hops.size(), 1u);
  EXPECT_EQ(b.metrics.hops[0].name, "fabric");
}

TEST(Route, MidPathDropIsRecoveredBySender) {
  Simulation sim;
  // Wide well-buffered edges, nearly bufferless narrow middle: losses
  // happen only mid-path, where the sender cannot see them directly.
  const std::vector<LinkConfig> hops = {make_link("edge", 25.0, 0.1, 50.0),
                                        make_link("wan", 1.0, 7.5, 0.05),
                                        make_link("ingest", 25.0, 0.4, 50.0)};
  OwnedRoute fwd(hops);
  OwnedRoute rev(reverse_chain(hops));
  std::vector<std::unique_ptr<TcpFlow>> flows;
  for (std::uint32_t i = 0; i < 6; ++i) {
    flows.push_back(
        std::make_unique<TcpFlow>(i, units::Bytes::megabytes(2.0), TcpConfig{}, fwd, rev));
  }
  for (auto& f : flows) f->start(sim);
  sim.run();
  std::uint64_t retransmits = 0;
  for (auto& f : flows) {
    EXPECT_TRUE(f->complete());
    retransmits += f->retransmit_count();
  }
  EXPECT_EQ(fwd.hop(0).counters().packets_dropped, 0u);
  EXPECT_GT(fwd.hop(1).counters().packets_dropped, 0u);
  EXPECT_GT(retransmits, 0u);
}

TEST(Route, HopCsvHeaderAndValuesAreRectangular) {
  const OwnedRoute path(chain3(25.0, 10.0, 40.0));
  std::vector<HopMetrics> hops;
  for (std::size_t h = 0; h < path.hop_count(); ++h) hops.push_back(snapshot_hop(path.hop(h)));
  const auto header = hop_csv_header(3);
  const auto values = hop_csv_values(hops, 3);
  ASSERT_EQ(header.size(), values.size());
  EXPECT_EQ(header.front(), "hop0_name");
  EXPECT_EQ(values.front(), "edge");
  // Padding: asking for more hops than measured fills empty cells.
  const auto padded = hop_csv_values(hops, 4);
  EXPECT_EQ(padded.size(), hop_csv_header(4).size());
  EXPECT_EQ(padded.back(), "");
}

// Two routes share a small-buffer middle link and their packets interleave
// there while it drops some of them.  Each in-flight packet points at its
// own route's next step, so a drop of one route's packet must not shift
// the other's: each sink gets only its own packets, in send order, and
// exactly as many as its last hop forwarded.
TEST(Route, SharedHopDropsKeepEachRouteOwnPackets) {
  struct RecordingSink : PacketSink {
    std::vector<std::uint64_t> seqs;
    void on_packet(Simulation&, const Packet& packet) override { seqs.push_back(packet.seq); }
  };
  Link a_edge(make_link("a-edge", 10.0, 0.1, 50.0));
  Link b_edge(make_link("b-edge", 7.0, 0.1, 50.0));
  Link shared(make_link("shared", 10.0, 1.0, 0.05));
  Link a_tail(make_link("a-tail", 10.0, 0.4, 50.0));
  Link b_tail(make_link("b-tail", 10.0, 0.4, 50.0));
  RecordingSink a_sink;
  RecordingSink b_sink;
  // Each route past its first hop: the shared hop, its own tail, its sink.
  const RouteStep a_route[] = {{&shared, nullptr}, {&a_tail, nullptr}, {nullptr, &a_sink}};
  const RouteStep b_route[] = {{&shared, nullptr}, {&b_tail, nullptr}, {nullptr, &b_sink}};

  // The edges feed the shared hop at 1.7x its rate, at different paces, so
  // the two routes' packets interleave unevenly and both lose some.
  constexpr std::uint64_t kPackets = 400;
  constexpr std::uint64_t kBOffset = 1'000'000;  // b's seqs, told apart from a's
  Simulation sim;
  Packet p;
  p.size_bytes = 9000;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    p.seq = static_cast<std::uint32_t>(i);
    ASSERT_TRUE(a_edge.transmit(sim, p, a_route));
    p.seq = static_cast<std::uint32_t>(kBOffset + i);
    ASSERT_TRUE(b_edge.transmit(sim, p, b_route));
  }
  sim.run();

  ASSERT_GT(shared.counters().packets_dropped, 0u);
  for (const auto* sink : {&a_sink, &b_sink}) {
    const std::uint64_t base = sink == &a_sink ? 0 : kBOffset;
    const Link& tail = sink == &a_sink ? a_tail : b_tail;
    SCOPED_TRACE(sink == &a_sink ? "a" : "b");
    EXPECT_LT(sink->seqs.size(), kPackets);  // this route lost packets too
    EXPECT_EQ(sink->seqs.size(), tail.counters().packets_forwarded);
    for (std::size_t k = 0; k < sink->seqs.size(); ++k) {
      ASSERT_GE(sink->seqs[k], base) << "foreign packet at " << k;
      ASSERT_LT(sink->seqs[k], base + kPackets) << "foreign packet at " << k;
      if (k > 0) {
        ASSERT_GT(sink->seqs[k], sink->seqs[k - 1]) << "out of order at " << k;
      }
    }
  }
  EXPECT_EQ(a_sink.seqs.size() + b_sink.seqs.size() + shared.counters().packets_dropped,
            2 * kPackets);
}

TEST(Route, RoutesOverOneLinkShareItsState) {
  // A one-hop route over the middle link of a three-hop route: cross
  // traffic lands in the same counters the main route reports.
  const OwnedRoute main(chain3(2.5, 2.5, 2.5));
  Link* const side[] = {&main.hop(1)};
  Simulation sim;
  const OwnedRoute side_rev({make_link("side-rev", 2.5, 7.5, 256.0)});
  TcpFlow flow(7, units::Bytes::megabytes(1.0), TcpConfig{}, side, side_rev);
  flow.start(sim);
  sim.run();
  ASSERT_TRUE(flow.complete());
  EXPECT_GT(main.hop(1).counters().packets_forwarded, 0u);
  EXPECT_EQ(main.hop(0).counters().packets_offered, 0u);
}

}  // namespace
}  // namespace sss::simnet
