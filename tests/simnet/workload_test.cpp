// Tests for the workload orchestrator: spawn schedules, metric collection,
// determinism, and the qualitative congestion behaviour the paper measures.
#include "simnet/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "simnet/metrics.hpp"
#include "simnet/scheduler.hpp"
#include "simnet/topology.hpp"

namespace sss::simnet {
namespace {

// A scaled-down Table-2 cell that runs fast in unit tests: 2 seconds of
// spawning, smaller transfers, 2.5 Gbps link (same 16 ms RTT).
WorkloadConfig small_config(int concurrency, int parallel_flows, SpawnMode mode) {
  WorkloadConfig cfg;
  cfg.duration = units::Seconds::of(2.0);
  cfg.concurrency = concurrency;
  cfg.parallel_flows = parallel_flows;
  cfg.transfer_size = units::Bytes::megabytes(50.0);
  cfg.mode = mode;
  cfg.link.capacity = units::DataRate::gigabits_per_second(2.5);
  cfg.link.propagation_delay = units::Seconds::millis(8.0);
  cfg.link.buffer = units::Bytes::megabytes(5.0);
  return cfg;
}

// --- the resolved World -----------------------------------------------------

std::vector<std::size_t> iota_route(std::size_t n) {
  std::vector<std::size_t> route;
  for (std::size_t h = 0; h < n; ++h) route.push_back(h);
  return route;
}

TEST(World, SingleLinkIsOneEdgeAndOneDefaultTenant) {
  WorkloadConfig cfg = small_config(3, 2, SpawnMode::kSimultaneousBatches);
  cfg.scheduler.deadline_s = 7.0;
  const World world = normalize(cfg);
  EXPECT_EQ(world.source, World::Source::kLink);
  EXPECT_EQ(world.edges, std::vector<LinkConfig>{cfg.link});
  EXPECT_EQ(world.canonical, iota_route(1));
  ASSERT_EQ(world.tenants.size(), 1u);
  const WorldTenant& all = world.tenants[0];
  EXPECT_EQ(all.name, "all");
  EXPECT_EQ(all.route, world.canonical);
  EXPECT_EQ(all.concurrency, 3);
  EXPECT_EQ(all.transfer_size.bytes(), cfg.transfer_size.bytes());
  EXPECT_EQ(all.deadline_s, 7.0);
  EXPECT_EQ(world.bottleneck().capacity.bps(), cfg.link.capacity.bps());
  EXPECT_EQ(world.rtt().seconds(), cfg.link.propagation_delay.seconds() * 2.0);
}

TEST(World, PathHopsAreTheCanonicalChain) {
  WorkloadConfig cfg = small_config(1, 1, SpawnMode::kSimultaneousBatches);
  cfg.path_hops = Topology(topology_preset("edge_dtn_wan_hpc")).canonical_route();
  cfg.link.capacity = units::DataRate::gigabits_per_second(0.001);  // never read
  const World world = normalize(cfg);
  EXPECT_EQ(world.source, World::Source::kPathHops);
  EXPECT_EQ(world.edges, cfg.path_hops);
  EXPECT_EQ(world.canonical, iota_route(cfg.path_hops.size()));
  EXPECT_EQ(world.hops(world.canonical), cfg.effective_hops());
  EXPECT_EQ(world.bottleneck().capacity.bps(), cfg.bottleneck_capacity().bps());
  EXPECT_EQ(world.rtt().seconds(),
            total_propagation_delay(cfg.path_hops).seconds() * 2.0);
}

TEST(World, TopologyWithoutTenantsIsItsCanonicalRoute) {
  WorkloadConfig cfg = small_config(1, 1, SpawnMode::kSimultaneousBatches);
  cfg.topology = "lcls_to_nersc_esnet";
  const Topology topo(topology_preset(cfg.topology));
  const World world = normalize(cfg);
  EXPECT_EQ(world.source, World::Source::kTopology);
  EXPECT_EQ(world.edges, topo.canonical_route());
  EXPECT_EQ(world.canonical, iota_route(world.edges.size()));
  ASSERT_EQ(world.tenants.size(), 1u);
  EXPECT_EQ(world.tenants[0].name, "all");
  const std::vector<LinkConfig> hops = topo.canonical_route();
  EXPECT_EQ(world.bottleneck().name, hops[bottleneck_hop_index(hops)].name);
}

// Declared tenants route over the whole preset graph and inherit every
// knob they leave at 0 from the workload.
TEST(World, TenantsInheritSizeConcurrencyAndDeadline) {
  WorkloadConfig cfg = small_config(2, 1, SpawnMode::kSimultaneousBatches);
  cfg.topology = "dual_facility_fanout";
  cfg.scheduler.policy = SchedPolicy::kEdf;
  cfg.scheduler.deadline_s = 9.0;
  TenantSpec inherits;
  TenantSpec own;
  own.name = "beamline";
  own.src = "ins1";
  own.dst = "fac_b";
  own.concurrency = 5;
  own.transfer_size = units::Bytes::megabytes(20.0);
  own.deadline_s = 3.0;
  cfg.tenants = {inherits, own};
  const Topology topo(topology_preset(cfg.topology));
  const World world = normalize(cfg);
  EXPECT_EQ(world.edges.size(), topo.config().links.size());
  EXPECT_EQ(world.canonical, topo.route_indices("ins0", "fac_a"));
  ASSERT_EQ(world.tenants.size(), 2u);
  const WorldTenant& a = world.tenants[0];
  EXPECT_EQ(a.name, "tenant0");
  EXPECT_EQ(a.route, world.canonical);
  EXPECT_EQ(a.concurrency, 2);
  EXPECT_EQ(a.transfer_size.bytes(), cfg.transfer_size.bytes());
  EXPECT_EQ(a.deadline_s, 9.0);
  const WorldTenant& b = world.tenants[1];
  EXPECT_EQ(b.name, "beamline");
  EXPECT_EQ(b.route, topo.route_indices("ins1", "fac_b"));
  EXPECT_EQ(b.concurrency, 5);
  EXPECT_EQ(b.transfer_size.bytes(), 20e6);
  EXPECT_EQ(b.deadline_s, 3.0);
  // ins1-nic and fac-b-ingest tie at 40 Gbps: the first hop wins.
  EXPECT_EQ(world.bottleneck(b.route).name, "ins1-nic");

  // Each tenant's theoretical time is its size over its route's bottleneck.
  const std::vector<TenantStat> stats = facility_tenant_stats(cfg, ExperimentMetrics{});
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "tenant0");
  EXPECT_EQ(stats[0].t_theoretical_s,
            (cfg.transfer_size / world.bottleneck(a.route).capacity).seconds());
  EXPECT_EQ(stats[1].t_theoretical_s,
            (units::Bytes::megabytes(20.0) / units::DataRate::gigabits_per_second(40.0))
                .seconds());
}

TEST(World, TypoedTenantEndpointKeepsTheRoutingMessage) {
  WorkloadConfig cfg = small_config(1, 1, SpawnMode::kSimultaneousBatches);
  cfg.topology = "dual_facility_fanout";
  cfg.scheduler.policy = SchedPolicy::kFifo;
  TenantSpec typo;
  typo.dst = "fac_c";
  cfg.tenants = {typo};
  std::string expected;
  try {
    (void)Topology(topology_preset(cfg.topology)).route_indices("ins0", "fac_c");
  } catch (const std::invalid_argument& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());
  try {
    cfg.validate();
    ADD_FAILURE() << "validate() accepted an unknown endpoint";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(WorkloadConfig, ValidationCatchesBadValues) {
  WorkloadConfig cfg = small_config(1, 2, SpawnMode::kScheduled);
  cfg.concurrency = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config(1, 2, SpawnMode::kScheduled);
  cfg.parallel_flows = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config(1, 2, SpawnMode::kScheduled);
  cfg.duration = units::Seconds::of(0.0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config(1, 2, SpawnMode::kScheduled);
  cfg.transfer_size = units::Bytes::of(0.0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config(1, 2, SpawnMode::kScheduled);
  cfg.background_load = 0.2;
  cfg.background_mean_flow_size = units::Bytes::of(0.0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(WorkloadConfig, BackgroundTrafficCharacterKnobs) {
  // The multi-tenant storm scenarios vary the cross-traffic shape: heavy
  // Pareto elephants and exponential mice must both run deterministically.
  WorkloadConfig cfg = small_config(2, 2, SpawnMode::kSimultaneousBatches);
  cfg.background_load = 0.3;
  cfg.background_mean_flow_size = units::Bytes::megabytes(8.0);
  cfg.background_pareto_shape = 1.2;
  const auto elephants = run_experiment(cfg);
  const auto elephants_again = run_experiment(cfg);
  EXPECT_EQ(elephants.t_worst_s(), elephants_again.t_worst_s());

  cfg.background_pareto_shape = 0.0;  // exponential sizes
  cfg.background_mean_flow_size = units::Bytes::megabytes(1.0);
  const auto mice = run_experiment(cfg);
  EXPECT_GT(mice.metrics.clients.size(), 0u);
  // Different cross-traffic character must actually change the outcome.
  EXPECT_NE(mice.t_worst_s(), elephants.t_worst_s());
}

TEST(WorkloadConfig, PaperTable2Transcription) {
  const WorkloadConfig cfg = WorkloadConfig::paper_table2(4, 8, SpawnMode::kScheduled);
  EXPECT_DOUBLE_EQ(cfg.duration.seconds(), 10.0);
  EXPECT_EQ(cfg.concurrency, 4);
  EXPECT_EQ(cfg.parallel_flows, 8);
  EXPECT_DOUBLE_EQ(cfg.transfer_size.gb(), 0.5);
  EXPECT_DOUBLE_EQ(cfg.link.capacity.gbit_per_s(), 25.0);
  EXPECT_DOUBLE_EQ(cfg.link.propagation_delay.ms(), 8.0);  // 16 ms RTT
  // T_theoretical = 0.16 s (Section 4.1).
  EXPECT_NEAR(cfg.theoretical_transfer_time().seconds(), 0.16, 1e-9);
  // Offered load at concurrency 4: 2 GB/s over 3.125 GB/s = 64 % — the
  // case study's coherent-scattering operating point.
  EXPECT_NEAR(cfg.offered_load(), 0.64, 1e-9);
}

TEST(RunExperiment, SpawnsExpectedClientCount) {
  const auto result = run_experiment(small_config(3, 2, SpawnMode::kScheduled));
  EXPECT_EQ(result.metrics.clients.size(), 6u);  // 3 clients/s x 2 s
  EXPECT_EQ(result.metrics.flows.size(), 12u);   // x 2 parallel flows
}

TEST(RunExperiment, AllClientsCompleteAtLowLoad) {
  const auto result = run_experiment(small_config(1, 2, SpawnMode::kScheduled));
  EXPECT_FALSE(std::any_of(result.metrics.clients.begin(), result.metrics.clients.end(),
                           [](const ClientRecord& c) { return c.censored; }));
  for (const auto& c : result.metrics.clients) {
    EXPECT_GT(c.fct_s(), 0.0);
    EXPECT_EQ(c.flow_count, 2u);
  }
}

TEST(RunExperiment, ClientFctCoversItsFlows) {
  const auto result = run_experiment(small_config(2, 4, SpawnMode::kScheduled));
  for (const auto& client : result.metrics.clients) {
    double latest_flow_end = 0.0;
    for (const auto& flow : result.metrics.flows) {
      if (flow.client_id == client.client_id) {
        latest_flow_end = std::max(latest_flow_end, flow.end_s);
      }
    }
    EXPECT_NEAR(client.end_s, latest_flow_end, 1e-9);
  }
}

TEST(RunExperiment, DeterministicForSameSeed) {
  const auto a = run_experiment(small_config(2, 2, SpawnMode::kSimultaneousBatches));
  const auto b = run_experiment(small_config(2, 2, SpawnMode::kSimultaneousBatches));
  ASSERT_EQ(a.metrics.clients.size(), b.metrics.clients.size());
  for (std::size_t i = 0; i < a.metrics.clients.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics.clients[i].fct_s(), b.metrics.clients[i].fct_s());
  }
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(RunExperiment, SeedChangesJitterButNotScale) {
  WorkloadConfig cfg = small_config(2, 2, SpawnMode::kSimultaneousBatches);
  const auto a = run_experiment(cfg);
  cfg.seed = 1234;
  const auto b = run_experiment(cfg);
  // Different jitter, same workload scale.
  ASSERT_EQ(a.metrics.clients.size(), b.metrics.clients.size());
  ASSERT_EQ(a.metrics.flows.size(), b.metrics.flows.size());
  // The start jitter differs, so at least one flow's timing must differ.
  bool any_difference = false;
  for (std::size_t i = 0; i < a.metrics.flows.size(); ++i) {
    if (a.metrics.flows[i].start_s != b.metrics.flows[i].start_s ||
        a.metrics.flows[i].end_s != b.metrics.flows[i].end_s) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(RunExperiment, ScheduledSpawningSpreadsStarts) {
  const auto result = run_experiment(small_config(4, 2, SpawnMode::kScheduled));
  // Clients within a second request slots at k + i/4; FIFO admission with
  // one slot means actual starts never precede the slot and never precede
  // the previous client's completion.
  const auto& clients = result.metrics.clients;
  ASSERT_GE(clients.size(), 4u);
  EXPECT_NEAR(clients[1].requested_s - clients[0].requested_s, 0.25, 1e-9);
  EXPECT_NEAR(clients[2].requested_s - clients[1].requested_s, 0.25, 1e-9);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    EXPECT_GE(clients[i].start_s, clients[i].requested_s - 1e-9);
    EXPECT_GE(clients[i].queue_wait_s(), 0.0);
    if (i > 0) {
      EXPECT_GE(clients[i].start_s, clients[i - 1].end_s - 1e-9);
    }
  }
}

TEST(RunExperiment, SimultaneousSpawningSharesStart) {
  const auto result = run_experiment(small_config(4, 2, SpawnMode::kSimultaneousBatches));
  const auto& clients = result.metrics.clients;
  ASSERT_GE(clients.size(), 4u);
  EXPECT_DOUBLE_EQ(clients[0].start_s, clients[1].start_s);
  EXPECT_DOUBLE_EQ(clients[2].start_s, clients[3].start_s);
}

TEST(RunExperiment, WorstCaseGrowsWithLoad) {
  // The core Fig. 2(a) behaviour at test scale: higher concurrency => worse
  // maximum client FCT.
  const auto low = run_experiment(small_config(1, 2, SpawnMode::kSimultaneousBatches));
  const auto high = run_experiment(small_config(6, 2, SpawnMode::kSimultaneousBatches));
  EXPECT_GT(high.t_worst_s(), low.t_worst_s() * 1.5);
}

TEST(RunExperiment, ScheduledBeatsSimultaneousUnderLoad) {
  // Fig. 2(b) vs Fig. 2(a): scheduling smooths the spikes.
  const auto sim = run_experiment(small_config(5, 2, SpawnMode::kSimultaneousBatches));
  const auto sched = run_experiment(small_config(5, 2, SpawnMode::kScheduled));
  EXPECT_LT(sched.t_worst_s(), sim.t_worst_s());
}

TEST(RunExperiment, UtilizationMeasuredOnLink) {
  const auto result = run_experiment(small_config(2, 2, SpawnMode::kScheduled));
  // Offered: 2 x 50 MB/s over 312.5 MB/s = 32 %.  Measured mean utilization
  // should be in that ballpark (payload + headers, finite drain window).
  EXPECT_GT(result.metrics.mean_utilization, 0.1);
  EXPECT_LT(result.metrics.mean_utilization, 0.6);
}

TEST(RunExperiment, OverloadReportsSaturationAndBacklog) {
  // Offered load > 1: transfers pile up; the experiment still terminates
  // (drain phase) and the worst-case FCT reflects the backlog.
  WorkloadConfig cfg = small_config(8, 2, SpawnMode::kSimultaneousBatches);
  ASSERT_GT(cfg.offered_load(), 1.0);
  const auto result = run_experiment(cfg);
  EXPECT_GT(result.t_worst_s(), 1.0);
  EXPECT_FALSE(result.metrics.clients.empty());
}


TEST(SpawnModeNames, Render) {
  EXPECT_STREQ(to_string(SpawnMode::kSimultaneousBatches), "simultaneous");
  EXPECT_STREQ(to_string(SpawnMode::kScheduled), "scheduled");
  EXPECT_STREQ(to_string(ArrivalProcess::kPerSecondBatch), "batch");
  EXPECT_STREQ(to_string(ArrivalProcess::kDeterministic), "deterministic");
  EXPECT_STREQ(to_string(ArrivalProcess::kPoisson), "poisson");
}

TEST(ArrivalProcess, DeterministicSpawnsExactProRataCount) {
  // The per-second batch process rounds fractional durations per second;
  // the deterministic process spawns the exact pro-rata count at exact
  // even spacing — the fractional-second spawner fix.
  WorkloadConfig cfg = small_config(4, 1, SpawnMode::kSimultaneousBatches);
  cfg.duration = units::Seconds::of(2.5);
  cfg.arrivals = ArrivalProcess::kDeterministic;
  stats::Random rng(cfg.seed);
  const auto times = requested_arrival_times(cfg, rng);
  ASSERT_EQ(times.size(), 10u);  // 4/s x 2.5 s, no whole-second rounding
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(times[i], static_cast<double>(i) * 0.25, 1e-12);
  }
  // Sub-second durations spawn the pro-rata share instead of nothing odd:
  cfg.duration = units::Seconds::of(0.5);
  const auto sub_second = requested_arrival_times(cfg, rng);
  EXPECT_EQ(sub_second.size(), 2u);
}

TEST(ArrivalProcess, DeterministicRunMatchesScheduleEndToEnd) {
  WorkloadConfig cfg = small_config(4, 2, SpawnMode::kSimultaneousBatches);
  cfg.duration = units::Seconds::of(1.5);
  cfg.arrivals = ArrivalProcess::kDeterministic;
  const auto result = run_experiment(cfg);
  ASSERT_EQ(result.metrics.clients.size(), 6u);
  for (std::size_t i = 0; i < result.metrics.clients.size(); ++i) {
    EXPECT_NEAR(result.metrics.clients[i].requested_s, static_cast<double>(i) * 0.25,
                1e-12);
  }
  EXPECT_FALSE(std::any_of(result.metrics.clients.begin(), result.metrics.clients.end(),
                           [](const ClientRecord& c) { return c.censored; }));
}

TEST(ArrivalProcess, PoissonIsSeededAndRateMatched) {
  WorkloadConfig cfg = small_config(4, 1, SpawnMode::kSimultaneousBatches);
  cfg.duration = units::Seconds::of(50.0);  // long window: tight rate estimate
  cfg.arrivals = ArrivalProcess::kPoisson;
  stats::Random rng_a(cfg.seed);
  stats::Random rng_b(cfg.seed);
  const auto a = requested_arrival_times(cfg, rng_a);
  const auto b = requested_arrival_times(cfg, rng_b);
  EXPECT_EQ(a, b);  // same seed, same realization
  // ~200 expected arrivals; allow +-25 %.
  EXPECT_NEAR(static_cast<double>(a.size()), 200.0, 50.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (const double t : a) EXPECT_LT(t, 50.0);

  stats::Random rng_c(cfg.seed + 1);
  const auto c = requested_arrival_times(cfg, rng_c);
  EXPECT_NE(a, c);  // different seed, different realization
}

TEST(ArrivalProcess, PoissonRunIsDeterministicAndScheduledModeWorks) {
  WorkloadConfig cfg = small_config(3, 2, SpawnMode::kScheduled);
  cfg.arrivals = ArrivalProcess::kPoisson;
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  ASSERT_EQ(a.metrics.clients.size(), b.metrics.clients.size());
  EXPECT_EQ(a.events_processed, b.events_processed);
  // One-slot FIFO admission still admits in arrival order from the Poisson
  // arrival times.
  for (std::size_t i = 0; i < a.metrics.clients.size(); ++i) {
    EXPECT_GE(a.metrics.clients[i].start_s, a.metrics.clients[i].requested_s - 1e-9);
  }
}

TEST(MultiHopWorkload, BottleneckDrivesOfferedLoadAndTheoretical) {
  WorkloadConfig cfg = small_config(2, 2, SpawnMode::kSimultaneousBatches);
  cfg.path_hops = {cfg.link, cfg.link, cfg.link};
  cfg.path_hops[1].name = "narrow";
  cfg.path_hops[1].capacity = units::DataRate::gigabits_per_second(1.0);
  EXPECT_DOUBLE_EQ(cfg.bottleneck_capacity().gbit_per_s(), 1.0);
  EXPECT_DOUBLE_EQ(cfg.theoretical_transfer_time().seconds(),
                   (cfg.transfer_size / cfg.bottleneck_capacity()).seconds());

  const auto result = run_experiment(cfg);
  ASSERT_EQ(result.metrics.hops.size(), 3u);
  EXPECT_EQ(result.metrics.hops[1].name, "narrow");
  // Path summary utilization describes the bottleneck hop.
  EXPECT_DOUBLE_EQ(result.metrics.mean_utilization,
                   result.metrics.hops[1].mean_utilization);
}

TEST(MultiHopWorkload, ValidatesHopCrossTraffic) {
  WorkloadConfig cfg = small_config(1, 1, SpawnMode::kSimultaneousBatches);
  HopCrossTraffic storm;
  storm.hop = 3;  // out of range for a single-link run
  storm.load = 0.5;
  cfg.hop_cross_traffic = {storm};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.hop_cross_traffic[0].hop = 0;
  cfg.hop_cross_traffic[0].start = units::Seconds::of(5.0);
  cfg.hop_cross_traffic[0].until = units::Seconds::of(2.0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(MultiHopWorkload, HopCrossTrafficLandsOnItsHopOnly) {
  WorkloadConfig cfg = small_config(1, 1, SpawnMode::kSimultaneousBatches);
  cfg.path_hops = {cfg.link, cfg.link, cfg.link};
  cfg.path_hops[0].name = "edge";
  cfg.path_hops[1].name = "wan";
  cfg.path_hops[2].name = "ingest";
  HopCrossTraffic storm;
  storm.hop = 1;
  storm.load = 0.5;
  storm.until = cfg.duration;
  storm.mean_flow_size = units::Bytes::megabytes(4.0);
  cfg.hop_cross_traffic = {storm};
  const auto result = run_experiment(cfg);
  ASSERT_EQ(result.metrics.hops.size(), 3u);
  // The WAN hop carried strictly more than the clean hops: the storm's
  // bytes traversed hop 1 but never hop 0 or 2.
  EXPECT_GT(result.metrics.hops[1].packets_offered,
            result.metrics.hops[0].packets_offered);
  EXPECT_GT(result.metrics.hops[1].packets_offered,
            result.metrics.hops[2].packets_offered);
}

// A deadline-censored multi-hop run: the drain timeout cuts the transfers
// off mid-flight, so the batch horizon decides exactly where dispatch
// stops.  The event count and final clock are pinned as numbers so any
// change to dispatch order or to the stop rule shows up here.
TEST(MultiHopWorkload, DeadlineCensoredRunStopsAtPinnedEventAndClock) {
  WorkloadConfig cfg = small_config(2, 2, SpawnMode::kSimultaneousBatches);
  cfg.path_hops = {cfg.link, cfg.link, cfg.link};
  cfg.path_hops[1].capacity = units::DataRate::gigabits_per_second(1.0);
  cfg.drain_timeout = units::Seconds::millis(50.0);
  cfg.seed = 42;
  const ExperimentResult result = run_experiment(cfg);
  std::size_t censored = 0;
  for (const ClientRecord& client : result.metrics.clients) censored += client.censored;
  ASSERT_GT(censored, 0u) << "the drain timeout must censor some transfers";
  EXPECT_EQ(result.events_processed, 122'381u);
  // One event past the 2.05 s deadline, in nanoseconds.
  EXPECT_EQ(std::llround(result.sim_duration_s * 1e9), 2'050'004'747);
  EXPECT_EQ(result.queue_high_water, 14u);
}

}  // namespace
}  // namespace sss::simnet
