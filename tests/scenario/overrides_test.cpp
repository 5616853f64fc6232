// Tests for --param k=v workload overrides: the binding table, strict value
// parsing, seed pinning, and the env-list splitter.
#include "scenario/overrides.hpp"

#include <gtest/gtest.h>

#include "simnet/topology.hpp"

namespace sss::scenario {
namespace {

simnet::WorkloadConfig base_config() {
  return simnet::WorkloadConfig::paper_table2(4, 2,
                                              simnet::SpawnMode::kSimultaneousBatches);
}

TEST(Overrides, SplitsCommaSeparatedList) {
  EXPECT_EQ(split_param_list("a=1,b=2"), (std::vector<std::string>{"a=1", "b=2"}));
  EXPECT_EQ(split_param_list(""), std::vector<std::string>{});
  EXPECT_EQ(split_param_list(",a=1,,"), std::vector<std::string>{"a=1"});
}

TEST(Overrides, AppliesWorkloadKnobs) {
  simnet::WorkloadConfig cfg = base_config();
  EXPECT_FALSE(apply_param_override(cfg, "concurrency=8"));
  EXPECT_FALSE(apply_param_override(cfg, "parallel_flows=6"));
  EXPECT_FALSE(apply_param_override(cfg, "duration_s=2.5"));
  EXPECT_FALSE(apply_param_override(cfg, "transfer_size_mb=100"));
  EXPECT_FALSE(apply_param_override(cfg, "link_gbps=10"));
  EXPECT_FALSE(apply_param_override(cfg, "rtt_ms=20"));
  EXPECT_FALSE(apply_param_override(cfg, "buffer_mb=8"));
  EXPECT_FALSE(apply_param_override(cfg, "background_load=0.4"));
  EXPECT_FALSE(apply_param_override(cfg, "mode=scheduled"));
  EXPECT_FALSE(apply_param_override(cfg, "arrivals=poisson"));

  EXPECT_EQ(cfg.concurrency, 8);
  EXPECT_EQ(cfg.parallel_flows, 6);
  EXPECT_DOUBLE_EQ(cfg.duration.seconds(), 2.5);
  EXPECT_DOUBLE_EQ(cfg.transfer_size.mb(), 100.0);
  EXPECT_DOUBLE_EQ(cfg.link.capacity.gbit_per_s(), 10.0);
  EXPECT_DOUBLE_EQ(cfg.link.propagation_delay.ms(), 10.0);  // one-way = rtt/2
  EXPECT_DOUBLE_EQ(cfg.link.buffer.mb(), 8.0);
  EXPECT_DOUBLE_EQ(cfg.background_load, 0.4);
  EXPECT_EQ(cfg.mode, simnet::SpawnMode::kScheduled);
  EXPECT_EQ(cfg.arrivals, simnet::ArrivalProcess::kPoisson);
}

TEST(Overrides, HopCapacityTargetsPathHops) {
  simnet::WorkloadConfig cfg = base_config();
  cfg.path_hops = simnet::Topology(simnet::topology_preset("edge_dtn_wan_hpc"))
                      .canonical_route();
  EXPECT_FALSE(apply_param_override(cfg, "hop1_gbps=5"));
  EXPECT_DOUBLE_EQ(cfg.path_hops[1].capacity.gbit_per_s(), 5.0);
  // Out-of-range hop index and hop overrides on single-link runs both fail.
  EXPECT_THROW(apply_param_override(cfg, "hop9_gbps=5"), std::invalid_argument);
  simnet::WorkloadConfig single = base_config();
  EXPECT_THROW(apply_param_override(single, "hop0_gbps=5"), std::invalid_argument);
  // ... and single-link keys are rejected on topology runs instead of
  // silently mutating the unused config.link.
  EXPECT_THROW(apply_param_override(cfg, "link_gbps=10"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "rtt_ms=20"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "buffer_mb=8"), std::invalid_argument);
}

TEST(Overrides, DurationOverrideRescalesStormWindows) {
  simnet::WorkloadConfig cfg = base_config();  // 10 s duration
  cfg.path_hops = simnet::Topology(simnet::topology_preset("edge_dtn_wan_hpc"))
                      .canonical_route();
  simnet::HopCrossTraffic storm;
  storm.hop = 1;
  storm.load = 0.5;
  storm.start = units::Seconds::of(5.0);
  storm.until = units::Seconds::of(10.0);
  cfg.hop_cross_traffic = {storm};
  EXPECT_FALSE(apply_param_override(cfg, "duration_s=2"));
  // The storm still covers the second half of the (now 2 s) run.
  EXPECT_DOUBLE_EQ(cfg.hop_cross_traffic[0].start.seconds(), 1.0);
  EXPECT_DOUBLE_EQ(cfg.hop_cross_traffic[0].until.seconds(), 2.0);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Overrides, StrictParsingRejectsGarbage) {
  simnet::WorkloadConfig cfg = base_config();
  EXPECT_THROW(apply_param_override(cfg, "concurrency=2abc"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "concurrency=0"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "duration_s=-1"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "mode=sideways"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "arrivals=fifo"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "nonsense=1"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "justakey"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "=5"), std::invalid_argument);
}

TEST(Overrides, BackgroundAndExactSizeKnobs) {
  simnet::WorkloadConfig cfg = base_config();
  EXPECT_FALSE(apply_param_override(cfg, "background_mean_mb=256"));
  EXPECT_FALSE(apply_param_override(cfg, "background_shape=1.2"));
  EXPECT_FALSE(apply_param_override(cfg, "transfer_size_bytes=500000001"));
  EXPECT_FALSE(apply_param_override(cfg, "buffer_bytes=50000001"));
  EXPECT_FALSE(apply_param_override(cfg, "link_name=backup-10g"));
  EXPECT_DOUBLE_EQ(cfg.background_mean_flow_size.mb(), 256.0);
  EXPECT_DOUBLE_EQ(cfg.background_pareto_shape, 1.2);
  EXPECT_DOUBLE_EQ(cfg.transfer_size.bytes(), 500000001.0);
  EXPECT_DOUBLE_EQ(cfg.link.buffer.bytes(), 50000001.0);
  EXPECT_EQ(cfg.link.name, "backup-10g");
  EXPECT_THROW(apply_param_override(cfg, "background_mean_mb=0"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "background_shape=-1"), std::invalid_argument);
}

TEST(Overrides, StormKeysBuildWindowedCrossTraffic) {
  simnet::WorkloadConfig cfg = base_config();
  cfg.path_hops = simnet::Topology(simnet::topology_preset("edge_dtn_wan_hpc"))
                      .canonical_route();
  // storm1_* auto-extends the storm list to two entries.
  EXPECT_FALSE(apply_param_override(cfg, "storm1_hop=1"));
  EXPECT_FALSE(apply_param_override(cfg, "storm1_load=0.6"));
  EXPECT_FALSE(apply_param_override(cfg, "storm1_start_s=5"));
  EXPECT_FALSE(apply_param_override(cfg, "storm1_until_s=10"));
  EXPECT_FALSE(apply_param_override(cfg, "storm1_mean_mb=128"));
  EXPECT_FALSE(apply_param_override(cfg, "storm1_shape=1.3"));
  ASSERT_EQ(cfg.hop_cross_traffic.size(), 2u);
  EXPECT_EQ(cfg.hop_cross_traffic[1].hop, 1);
  EXPECT_DOUBLE_EQ(cfg.hop_cross_traffic[1].load, 0.6);
  EXPECT_DOUBLE_EQ(cfg.hop_cross_traffic[1].start.seconds(), 5.0);
  EXPECT_DOUBLE_EQ(cfg.hop_cross_traffic[1].until.seconds(), 10.0);
  EXPECT_DOUBLE_EQ(cfg.hop_cross_traffic[1].mean_flow_size.mb(), 128.0);
  EXPECT_DOUBLE_EQ(cfg.hop_cross_traffic[1].pareto_shape, 1.3);
  EXPECT_THROW(apply_param_override(cfg, "storm1_hop=-1"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "storm1_height=3"), std::invalid_argument);
  // A typo'd huge index must be a validation error, not a giant resize.
  EXPECT_THROW(apply_param_override(cfg, "storm2000000000_hop=1"),
               std::invalid_argument);
}

TEST(Overrides, CalibrationKnobsReachTheConfig) {
  simnet::WorkloadConfig cfg = base_config();
  EXPECT_FALSE(apply_param_override(cfg, "trace_path=/data/campaign.csv"));
  EXPECT_FALSE(apply_param_override(cfg, "fit_operating_util=0.8"));
  EXPECT_FALSE(apply_param_override(cfg, "fit_true_alpha=0.7"));
  EXPECT_FALSE(apply_param_override(cfg, "fit_true_theta=1.6"));
  EXPECT_FALSE(apply_param_override(cfg, "fit_congestion_slope=3.5"));
  EXPECT_EQ(cfg.calibration.trace_path, "/data/campaign.csv");
  EXPECT_DOUBLE_EQ(cfg.calibration.operating_util, 0.8);
  EXPECT_DOUBLE_EQ(cfg.calibration.true_alpha, 0.7);
  EXPECT_DOUBLE_EQ(cfg.calibration.true_theta, 1.6);
  EXPECT_DOUBLE_EQ(cfg.calibration.congestion_slope, 3.5);
  EXPECT_NO_THROW(cfg.validate());
  // Empty path = the built-in demo trace; out-of-domain values still fail.
  EXPECT_FALSE(apply_param_override(cfg, "trace_path="));
  EXPECT_TRUE(cfg.calibration.trace_path.empty());
  EXPECT_THROW(apply_param_override(cfg, "fit_true_alpha=1.5"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "fit_true_theta=0.9"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "fit_operating_util=0"), std::invalid_argument);
  EXPECT_THROW(apply_param_override(cfg, "fit_congestion_slope=-1"),
               std::invalid_argument);
}

TEST(Overrides, SubstrateIsARunLevelKey) {
  RunPoint run;
  run.config = base_config();
  EXPECT_FALSE(apply_run_override(run, "substrate=fluid"));
  EXPECT_EQ(run.substrate, Substrate::kFluid);
  EXPECT_FALSE(apply_run_override(run, "substrate=packet"));
  EXPECT_EQ(run.substrate, Substrate::kPacket);
  EXPECT_THROW(apply_run_override(run, "substrate=quantum"), std::invalid_argument);
  // Config-only entry point rejects it as unknown.
  EXPECT_THROW(apply_param_override(run.config, "substrate=fluid"),
               std::invalid_argument);
}

TEST(Overrides, UnknownTopologyListsTheValidPresets) {
  // A CLI user cannot call topology_preset_names(); the error names the
  // presets instead.
  simnet::WorkloadConfig cfg = base_config();
  try {
    (void)apply_param_override(cfg, "topology=bogus");
    FAIL() << "expected an unknown-topology error";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("topology=bogus"), std::string::npos) << what;
    for (const std::string& name : simnet::topology_preset_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << what;  // dual_facility_fanout, ...
    }
    EXPECT_EQ(what.find("topology_preset_names"), std::string::npos) << what;
  }
  EXPECT_FALSE(apply_param_override(cfg, "topology=dual_facility_fanout"));
  EXPECT_EQ(cfg.topology, "dual_facility_fanout");
  EXPECT_FALSE(apply_param_override(cfg, "topology="));
  EXPECT_EQ(cfg.topology, "");
}

TEST(Overrides, SeedOverridePinsRunSeeds) {
  std::vector<RunPoint> runs(3);
  for (auto& run : runs) run.config = base_config();
  apply_param_overrides(runs, {"seed=777", "concurrency=2"});
  for (const auto& run : runs) {
    EXPECT_EQ(run.config.seed, 777u);
    EXPECT_FALSE(run.reseed);  // executor must not overwrite the pin
    EXPECT_EQ(run.config.concurrency, 2);
  }
}

}  // namespace
}  // namespace sss::scenario
