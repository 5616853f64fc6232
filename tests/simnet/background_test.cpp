// Tests for background cross-traffic injection.
#include "simnet/background.hpp"

#include <gtest/gtest.h>

#include "owned_route.hpp"
#include "simnet/workload.hpp"

namespace sss::simnet {
namespace {

LinkConfig small_link() {
  LinkConfig cfg;
  cfg.capacity = units::DataRate::gigabits_per_second(2.5);
  cfg.propagation_delay = units::Seconds::millis(8.0);
  cfg.buffer = units::Bytes::megabytes(5.0);
  return cfg;
}

TEST(BackgroundTraffic, ValidatesConfig) {
  Simulation sim;
  OwnedRoute fwd({small_link()}), rev({small_link()});
  BackgroundTrafficConfig bad;
  bad.target_load = -0.1;
  EXPECT_THROW(BackgroundTraffic(bad, fwd, rev), std::invalid_argument);
  bad = BackgroundTrafficConfig{};
  bad.mean_flow_size = units::Bytes::of(0.0);
  EXPECT_THROW(BackgroundTraffic(bad, fwd, rev), std::invalid_argument);
  bad = BackgroundTrafficConfig{};
  bad.until = units::Seconds::of(0.0);
  EXPECT_THROW(BackgroundTraffic(bad, fwd, rev), std::invalid_argument);
}

TEST(BackgroundTraffic, ZeroLoadSchedulesNothing) {
  Simulation sim;
  OwnedRoute fwd({small_link()}), rev({small_link()});
  BackgroundTrafficConfig cfg;
  cfg.target_load = 0.0;
  BackgroundTraffic bg(cfg, fwd, rev);
  bg.schedule(sim);
  EXPECT_EQ(bg.flows_started(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(BackgroundTraffic, OfferedLoadNearTarget) {
  Simulation sim;
  OwnedRoute fwd({small_link()}), rev({small_link()});
  BackgroundTrafficConfig cfg;
  cfg.target_load = 0.3;
  cfg.mean_flow_size = units::Bytes::megabytes(4.0);
  cfg.until = units::Seconds::of(20.0);
  cfg.pareto_shape = 0.0;  // exponential sizes: tighter mean convergence
  BackgroundTraffic bg(cfg, fwd, rev);
  bg.schedule(sim);
  sim.run();
  // Offered bytes over the window should be within ~35 % of the target
  // (stochastic; seeded so this is deterministic in practice).
  const double target_bytes = 0.3 * fwd.hop(0).config().capacity.bps() * 20.0;
  EXPECT_NEAR(bg.bytes_offered().bytes(), target_bytes, target_bytes * 0.35);
  EXPECT_GT(bg.flows_started(), 0u);
  EXPECT_EQ(bg.flows_completed(), bg.flows_started());
}

TEST(BackgroundTraffic, HeavyTailProducesElephants) {
  Simulation sim;
  OwnedRoute fwd({small_link()}), rev({small_link()});
  BackgroundTrafficConfig cfg;
  cfg.target_load = 0.3;
  cfg.mean_flow_size = units::Bytes::megabytes(2.0);
  cfg.pareto_shape = 1.3;
  cfg.until = units::Seconds::of(10.0);
  BackgroundTraffic bg(cfg, fwd, rev);
  bg.schedule(sim);
  ASSERT_GT(bg.flows_started(), 3u);
  sim.run();
  EXPECT_EQ(bg.flows_completed(), bg.flows_started());
}

TEST(BackgroundTraffic, DeterministicForSeed) {
  auto run_once = [] {
    Simulation sim;
    OwnedRoute fwd({small_link()}), rev({small_link()});
    BackgroundTrafficConfig cfg;
    cfg.target_load = 0.25;
    cfg.until = units::Seconds::of(5.0);
    BackgroundTraffic bg(cfg, fwd, rev);
    bg.schedule(sim);
    sim.run();
    return std::make_pair(bg.flows_started(), fwd.hop(0).counters().bytes_forwarded);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(BackgroundTraffic, DegradesForegroundWorstCase) {
  // The headline purpose: the same foreground workload must see a worse
  // (or equal) worst-case FCT when cross-traffic shares the bottleneck.
  WorkloadConfig cfg;
  cfg.duration = units::Seconds::of(2.0);
  cfg.concurrency = 3;
  cfg.parallel_flows = 2;
  cfg.transfer_size = units::Bytes::megabytes(40.0);
  cfg.mode = SpawnMode::kSimultaneousBatches;
  cfg.link = small_link();

  const auto clean = run_experiment(cfg);
  cfg.background_load = 0.5;
  const auto shared = run_experiment(cfg);
  EXPECT_GT(shared.t_worst_s(), clean.t_worst_s());
  // The cross-traffic must show up in the link counters too.
  EXPECT_GT(shared.metrics.mean_utilization, clean.metrics.mean_utilization);
}

TEST(BackgroundTraffic, StartWindowDelaysFirstArrival) {
  Simulation sim;
  OwnedRoute fwd({small_link()}), rev({small_link()});
  BackgroundTrafficConfig cfg;
  cfg.target_load = 0.4;
  cfg.mean_flow_size = units::Bytes::megabytes(2.0);
  cfg.start = units::Seconds::of(5.0);
  cfg.until = units::Seconds::of(8.0);
  BackgroundTraffic bg(cfg, fwd, rev);
  bg.schedule(sim);
  ASSERT_GT(bg.flows_started(), 0u);
  // Nothing touches the link before the window opens.
  sim.run_until(to_simtime(units::Seconds::of(4.999)));
  EXPECT_EQ(fwd.hop(0).counters().packets_offered, 0u);
  sim.run();
  EXPECT_GT(fwd.hop(0).counters().packets_offered, 0u);
  EXPECT_EQ(bg.flows_completed(), bg.flows_started());

  BackgroundTrafficConfig bad = cfg;
  bad.start = units::Seconds::of(9.0);  // start past until
  EXPECT_THROW(BackgroundTraffic(bad, fwd, rev), std::invalid_argument);
}

TEST(BackgroundTraffic, RejectsNegativeLoadViaWorkloadValidation) {
  WorkloadConfig cfg;
  cfg.background_load = -0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace sss::simnet
