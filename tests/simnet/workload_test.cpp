// Tests for the workload orchestrator: spawn schedules, metric collection,
// determinism, and the qualitative congestion behaviour the paper measures.
#include "simnet/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>

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
  EXPECT_FALSE(result.metrics.any_censored());
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
  EXPECT_FALSE(result.metrics.any_censored());
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

}  // namespace
}  // namespace sss::simnet
