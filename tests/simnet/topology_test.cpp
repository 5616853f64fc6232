// Tests for the declarative topology layer: validation, BFS routing, the
// preset catalog, and the decision layer's path profiling.
#include "simnet/topology.hpp"

#include <gtest/gtest.h>

#include "core/decision.hpp"

namespace sss::simnet {
namespace {

TopologyConfig diamond() {
  // a -> b -> d (2 hops) and a -> c1 -> c2 -> d (3 hops): BFS must pick the
  // 2-hop branch.
  TopologyConfig cfg;
  cfg.name = "diamond";
  cfg.nodes = {"a", "b", "c1", "c2", "d"};
  cfg.source = "a";
  cfg.sink = "d";
  const auto link = [](const char* from, const char* to, const char* name) {
    TopologyLink l;
    l.from = from;
    l.to = to;
    l.link.name = name;
    return l;
  };
  cfg.links = {link("a", "c1", "a-c1"), link("c1", "c2", "c1-c2"),
               link("c2", "d", "c2-d"), link("a", "b", "a-b"), link("b", "d", "b-d")};
  return cfg;
}

TEST(Topology, ValidatesGraph) {
  TopologyConfig cfg = diamond();
  cfg.links[0].from = "nope";
  EXPECT_THROW(Topology{cfg}, std::invalid_argument);

  cfg = diamond();
  cfg.links[1].link.name = "a-c1";  // duplicate
  EXPECT_THROW(Topology{cfg}, std::invalid_argument);

  cfg = diamond();
  cfg.nodes.push_back("a");  // duplicate node
  EXPECT_THROW(Topology{cfg}, std::invalid_argument);

  cfg = diamond();
  cfg.links[0].link.capacity = units::DataRate::bytes_per_second(0.0);
  EXPECT_THROW(Topology{cfg}, std::invalid_argument);

  cfg = diamond();
  cfg.source = "elsewhere";
  EXPECT_THROW(Topology{cfg}, std::invalid_argument);
}

TEST(Topology, RoutesFewestHops) {
  const Topology topo(diamond());
  const auto hops = topo.canonical_route();
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].name, "a-b");
  EXPECT_EQ(hops[1].name, "b-d");
}

TEST(Topology, RouteThrowsWhenUnreachable) {
  const Topology topo(diamond());
  EXPECT_THROW(topo.route("d", "a"), std::invalid_argument);  // links are directed
  EXPECT_THROW(topo.route("a", "zz"), std::invalid_argument);
}

TEST(Topology, LinkLookupByName) {
  const Topology topo(diamond());
  EXPECT_EQ(topo.link("c1-c2").name, "c1-c2");
  EXPECT_THROW((void)topo.link("missing"), std::invalid_argument);
}

TEST(TopologyPresets, CatalogRoutesEndToEnd) {
  for (const std::string& name : topology_preset_names()) {
    const Topology topo(topology_preset(name));
    const auto hops = topo.canonical_route();
    // Chains model >= 3-hop instrument->DTN->WAN->HPC paths; the branched
    // presets (diamond) may take a 2-hop canonical branch.
    EXPECT_GE(hops.size(), 2u) << name;
    for (const LinkConfig& hop : hops) {
      EXPECT_TRUE(hop.capacity.is_positive()) << name << "/" << hop.name;
    }
  }
  EXPECT_THROW(topology_preset("not_a_preset"), std::invalid_argument);
}

TEST(TopologyPresets, ApsToAlcfMatchesPaperPath) {
  // The hop-resolved Table-2 path must keep the paper's aggregate figures:
  // 25 Gbps bottleneck, 16 ms RTT.
  const Topology topo(topology_preset("aps_to_alcf"));
  const auto profile = core::profile_path(topo.canonical_route());
  EXPECT_EQ(profile.hop_count, 3u);
  EXPECT_EQ(profile.bottleneck_name, "esnet-wan");
  EXPECT_DOUBLE_EQ(profile.bottleneck_bandwidth.gbit_per_s(), 25.0);
  EXPECT_NEAR(profile.rtt.ms(), 16.0, 1e-9);
}

TEST(PathProfile, FindsBottleneckAndRtt) {
  std::vector<LinkConfig> hops(3);
  hops[0].name = "fast";
  hops[0].capacity = units::DataRate::gigabits_per_second(100.0);
  hops[0].propagation_delay = units::Seconds::millis(1.0);
  hops[1].name = "slow";
  hops[1].capacity = units::DataRate::gigabits_per_second(10.0);
  hops[1].propagation_delay = units::Seconds::millis(5.0);
  hops[2].name = "mid";
  hops[2].capacity = units::DataRate::gigabits_per_second(40.0);
  hops[2].propagation_delay = units::Seconds::millis(2.0);

  const auto profile = core::profile_path(hops);
  EXPECT_EQ(profile.bottleneck_hop, 1u);
  EXPECT_EQ(profile.bottleneck_name, "slow");
  EXPECT_DOUBLE_EQ(profile.bottleneck_bandwidth.gbit_per_s(), 10.0);
  EXPECT_NEAR(profile.rtt.ms(), 16.0, 1e-9);
  EXPECT_THROW(core::profile_path({}), std::invalid_argument);

  // with_path folds only the bandwidth into the model parameters.
  core::ModelParameters params;
  params.alpha = 0.8;
  const auto adjusted = core::with_path(params, profile);
  EXPECT_DOUBLE_EQ(adjusted.bandwidth.gbit_per_s(), 10.0);
  EXPECT_DOUBLE_EQ(adjusted.alpha, 0.8);
}

}  // namespace
}  // namespace sss::simnet
