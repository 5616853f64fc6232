// Tests for --param k=v workload overrides: the binding table, strict value
// parsing, seed pinning, and the env-list splitter.  The table only parses;
// the range rules it hands values to are WorkloadConfig::validate()'s.
#include "scenario/overrides.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "scenario/plan.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "simnet/topology.hpp"

namespace sss::scenario {
namespace {

simnet::WorkloadConfig base_config() {
  return simnet::WorkloadConfig::paper_table2(4, 2,
                                              simnet::SpawnMode::kSimultaneousBatches);
}

// `kv` parses, and validate() refuses the value it sets on the valid `cfg`
// (a copy, so each check starts from the caller's config).
void expect_parsed_then_refused(simnet::WorkloadConfig cfg, const std::string& kv) {
  ASSERT_NO_THROW(cfg.validate()) << kv;
  EXPECT_FALSE(apply_param_override(cfg, kv)) << kv;
  EXPECT_THROW(cfg.validate(), std::invalid_argument) << kv;
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
  // The table only parses: a single-link key sets config.link on any run,
  // and execute_scenario refuses the run (see
  // WorkloadBounds.SingleLinkKeysAreRefusedInAnyOrder).
  EXPECT_FALSE(apply_param_override(cfg, "link_gbps=10"));
  EXPECT_DOUBLE_EQ(cfg.link.capacity.gbit_per_s(), 10.0);
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
  expect_parsed_then_refused(cfg, "concurrency=0");
  expect_parsed_then_refused(cfg, "duration_s=-1");
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
  expect_parsed_then_refused(cfg, "background_mean_mb=0");
  expect_parsed_then_refused(cfg, "background_shape=-1");
}

TEST(Overrides, StormKeysBuildWindowedCrossTraffic) {
  simnet::WorkloadConfig cfg = base_config();
  cfg.path_hops = simnet::Topology(simnet::topology_preset("edge_dtn_wan_hpc"))
                      .canonical_route();
  // storm0_* appends the first storm, then storm1_* the second.
  EXPECT_FALSE(apply_param_override(cfg, "storm0_hop=0"));
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
  expect_parsed_then_refused(cfg, "storm1_hop=-1");
  EXPECT_THROW(apply_param_override(cfg, "storm1_height=3"), std::invalid_argument);
  // A typo'd huge index must be a validation error, not a giant resize.
  EXPECT_THROW(apply_param_override(cfg, "storm2000000000_hop=1"),
               std::invalid_argument);
}

// The message a refused override throws, or "" when it applies.
std::string override_error(simnet::WorkloadConfig& cfg, const std::string& kv) {
  try {
    (void)apply_param_override(cfg, kv);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// A storm<j>/tenant<j> key may append the next entry, but an index past it
// would leave entries that no key set (a default 20%-load storm, say): it
// is refused with the missing index, and the lists stay as they were.
TEST(Overrides, ListIndexPastTheNextEntryIsRefused) {
  simnet::WorkloadConfig cfg = base_config();
  ASSERT_TRUE(cfg.hop_cross_traffic.empty());
  EXPECT_EQ(override_error(cfg, "storm1_load=0"),
            "--param storm1_load=0: storm 1 skips storm 0, which this run does not "
            "define (set storm0_* first)");
  EXPECT_TRUE(cfg.hop_cross_traffic.empty());
  EXPECT_EQ(override_error(cfg, "storm0_load=0"), "");
  EXPECT_EQ(override_error(cfg, "storm3_load=0"),
            "--param storm3_load=0: storm 3 skips storm 1, which this run does not "
            "define (set storm1_* first)");
  EXPECT_EQ(cfg.hop_cross_traffic.size(), 1u);

  cfg.topology = "dual_facility_fanout";
  EXPECT_EQ(override_error(cfg, "tenant2_name=late"),
            "--param tenant2_name=late: tenant 2 skips tenant 0, which this run does "
            "not define (set tenant0_* first)");
  EXPECT_TRUE(cfg.tenants.empty());
  EXPECT_EQ(override_error(cfg, "tenant0_name=a"), "");
  EXPECT_EQ(override_error(cfg, "tenant1_name=b"), "");
  ASSERT_EQ(cfg.tenants.size(), 2u);
  EXPECT_EQ(cfg.tenants[1].name, "b");
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
  expect_parsed_then_refused(cfg, "fit_true_alpha=1.5");
  expect_parsed_then_refused(cfg, "fit_true_theta=0.9");
  expect_parsed_then_refused(cfg, "fit_operating_util=0");
  expect_parsed_then_refused(cfg, "fit_congestion_slope=-1");
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
  EXPECT_FALSE(apply_param_override(cfg, "topology=bogus"));
  try {
    cfg.validate();
    FAIL() << "expected an unknown-topology error";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
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

// --- one validator behind three routes -------------------------------------
//
// A value reaches WorkloadConfig::validate() as a --param override, as a
// plan axis value or inside a plan-JSON `base` section.  Whichever route it
// takes, an out-of-range value is refused with validate()'s text before any
// cell starts.

enum class World { kLink, kHops, kFacility };

ExperimentPlan fixture_plan(World world) {
  ExperimentPlan plan;
  plan.scenario = "bounds_fixture";
  plan.base = base_config();
  if (world == World::kHops) {
    plan.base.path_hops =
        simnet::Topology(simnet::topology_preset("edge_dtn_wan_hpc")).canonical_route();
    simnet::HopCrossTraffic storm;
    storm.hop = 1;
    storm.load = 0.3;
    plan.base.hop_cross_traffic = {storm};
  } else if (world == World::kFacility) {
    plan.base.topology = "dual_facility_fanout";
    plan.base.tenants = {simnet::TenantSpec{}};
    plan.base.scheduler.policy = simnet::SchedPolicy::kFifo;
  }
  plan.output.columns = {{"label", "label"}};
  return plan;
}

// Runs `spec` with `plan` and the --param `overrides`; returns validate()'s
// text from the refusal (after its "cell K (label): " prefix), or "" when
// nothing was refused.  A cell that starts fails the test.
std::string refusal(ScenarioSpec spec, ExperimentPlan plan,
                    std::vector<std::string> overrides = {}) {
  spec.plan = std::make_shared<const ExperimentPlan>(std::move(plan));
  ScenarioContext context;
  context.threads = 1;
  context.param_overrides = std::move(overrides);
  context.on_cell_start = [](std::size_t cell) {
    throw std::logic_error("cell " + std::to_string(cell) + " started");
  };
  try {
    (void)execute_scenario(spec, context);
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("cell 0 (", 0), 0u) << what;
    return what.substr(what.find("): ") + 3);
  }
  return "";
}

// The plan as a hand-edited plan file would carry it: written to JSON and
// read back through the `base` section's field lists.
ExperimentPlan through_json(const ExperimentPlan& plan) {
  return ExperimentPlan::from_json(trace::JsonValue::parse(plan.to_json_text()));
}

// A world built from path_hops or a topology preset never reads
// config.link, so a single-link key would do nothing.  execute_scenario
// refuses it once every axis point and --param is applied, whatever their
// order, naming the preset or the hop count.
TEST(WorkloadBounds, SingleLinkKeysAreRefusedInAnyOrder) {
  const std::string preset =
      "a single-link key (link_gbps, rtt_ms, buffer_mb, buffer_bytes, link_name) changed "
      "the link, but this run's network is the 'edge_dtn_wan_hpc' topology preset, whose "
      "links come from the preset";
  const ScenarioSpec spec;
  for (const std::string kv :
       {"link_gbps=0.5", "rtt_ms=500", "buffer_mb=8", "buffer_bytes=8", "link_name=x"}) {
    SCOPED_TRACE(kv);
    EXPECT_EQ(refusal(spec, fixture_plan(World::kLink), {kv, "topology=edge_dtn_wan_hpc"}),
              preset);
    EXPECT_EQ(refusal(spec, fixture_plan(World::kLink), {"topology=edge_dtn_wan_hpc", kv}),
              preset);
  }
  EXPECT_EQ(refusal(spec, fixture_plan(World::kHops), {"link_gbps=5"}),
            "a single-link key (link_gbps, rtt_ms, buffer_mb, buffer_bytes, link_name) "
            "changed the link, but this run's network is a 3-hop path (use hop<k>_gbps)");
  // The axis form: axes apply before --param, so the link an axis point
  // set is still refused once --param moves the run onto a preset.
  ExperimentPlan axis = fixture_plan(World::kLink);
  axis.axes.push_back(ParamAxis::tuples("link", {AxisPoint{"5g", {"link_gbps=5"}}}));
  EXPECT_EQ(refusal(spec, axis, {"topology=edge_dtn_wan_hpc"}), preset);
  // A preset alone, with the plan base's link untouched, still runs.
  EXPECT_THROW((void)refusal(spec, fixture_plan(World::kLink), {"topology=edge_dtn_wan_hpc"}),
               std::logic_error);
}

TEST(WorkloadBounds, ParamAxisAndPlanBaseRefuseWithTheSameText) {
  struct Case {
    World world;
    std::string kv;
    std::string text;  // validate()'s message
  };
  const Case cases[] = {
      {World::kLink, "concurrency=0", "concurrency must be >= 1"},
      {World::kLink, "parallel_flows=0", "parallel_flows must be >= 1"},
      {World::kLink, "duration_s=-1", "duration must be > 0"},
      {World::kLink, "transfer_size_mb=0", "transfer_size must be > 0"},
      {World::kLink, "transfer_size_bytes=-1", "transfer_size must be > 0"},
      {World::kLink, "link_gbps=0", "hop 0 capacity must be > 0"},
      {World::kLink, "rtt_ms=0", "hop 0 propagation_delay must be > 0"},
      {World::kLink, "buffer_mb=-1", "hop 0 buffer must be >= 0"},
      {World::kLink, "buffer_bytes=-1", "hop 0 buffer must be >= 0"},
      {World::kLink, "link_name=", "hop 0 name must not be empty"},
      {World::kLink, "background_load=-0.1", "background_load must be >= 0"},
      {World::kLink, "background_mean_mb=0", "background_mean_flow_size must be > 0"},
      {World::kLink, "background_shape=-1", "background_pareto_shape must be >= 0"},
      {World::kLink, "fit_operating_util=-0.5", "calibration operating_util must be > 0"},
      {World::kLink, "fit_true_alpha=1.5", "calibration true_alpha must be in (0, 1]"},
      {World::kLink, "fit_true_theta=0.9", "calibration true_theta must be >= 1"},
      {World::kLink, "fit_congestion_slope=-1", "calibration congestion_slope must be >= 0"},
      {World::kLink, "zipf_skew=-1", "storage zipf_skew must be >= 0"},
      {World::kLink, "sched_slots=0", "scheduler slots must be >= 1"},
      {World::kLink, "sched_deadline_s=0", "scheduler deadline_s must be > 0"},
      {World::kLink, "sched_burst_window_s=0", "scheduler burst_window_s must be > 0"},
      {World::kLink, "sched_burst_limit=0", "scheduler burst_limit must be >= 1"},
      {World::kLink, "sched_backoff_s=-1", "scheduler backoff_s must be >= 0"},
      {World::kLink, "topology=bogus", "unknown topology preset 'bogus'"},
      {World::kHops, "hop1_gbps=0", "hop 1 capacity must be > 0"},
      {World::kHops, "storm0_hop=-1", "storm 0 hop must index a hop of the path"},
      {World::kHops, "storm0_hop=3", "storm 0 hop must index a hop of the path"},
      {World::kHops, "storm0_load=-0.1", "storm 0 load must be >= 0"},
      {World::kHops, "storm0_start_s=-1", "storm 0 start must be >= 0"},
      {World::kHops, "storm0_until_s=-1", "storm 0 until must be >= 0"},
      {World::kHops, "storm0_start_s=10", "storm 0 with load > 0 needs start < until"},
      {World::kHops, "storm0_mean_mb=0", "storm 0 mean_flow_size must be > 0"},
      {World::kHops, "storm0_shape=-1", "storm 0 pareto_shape must be >= 0"},
      {World::kFacility, "tenant0_concurrency=-1", "tenant 0 concurrency must be >= 0"},
      {World::kFacility, "tenant0_size_mb=-1", "tenant 0 transfer_size must be >= 0"},
      {World::kFacility, "tenant0_deadline_s=-1", "tenant 0 deadline_s must be >= 0"},
  };
  ScenarioSpec spec;
  spec.name = "bounds_fixture";
  for (const Case& c : cases) {
    const ExperimentPlan clean = fixture_plan(c.world);
    ASSERT_NO_THROW(clean.base.validate()) << c.kv;

    const std::string by_param = refusal(spec, clean, {c.kv});
    ExperimentPlan axis = clean;
    axis.axes.push_back(ParamAxis::tuples("bad", {AxisPoint{"bad", {c.kv}}}));
    const std::string by_axis = refusal(spec, axis);
    ExperimentPlan base = clean;
    EXPECT_FALSE(apply_param_override(base.base, c.kv)) << c.kv;
    const std::string by_base = refusal(spec, through_json(base));

    EXPECT_EQ(by_param.substr(0, c.text.size()), c.text) << c.kv << ": " << by_param;
    EXPECT_EQ(by_axis, by_param) << c.kv;
    EXPECT_EQ(by_base, by_param) << c.kv;
  }
}

// The narrow packet fields (simnet/link.hpp) bound three values: the data
// packet's wire size, the ACK's, and the packets one flow numbers.  Each
// bound admits its ceiling, and one past it is refused by its own rule
// whichever way the value arrives — plan-JSON `base`, and --param where a
// key exists — before any cell starts.
TEST(WorkloadBounds, NarrowPacketFieldsBoundSizesAndFlowLength) {
  ScenarioSpec spec;
  spec.name = "bounds_fixture";
  const ExperimentPlan clean = fixture_plan(World::kLink);
  ASSERT_EQ(clean.base.parallel_flows, 2);
  ASSERT_EQ(clean.base.tcp.mss_bytes, 8948u);
  const auto with_base = [&](const std::function<void(simnet::WorkloadConfig&)>& edit) {
    ExperimentPlan plan = clean;
    edit(plan.base);
    return through_json(plan);
  };
  // (2^32 - 1) packets of 8948 bytes on each of 2 flows, and 2^32 packets.
  const std::string largest = "transfer_size_bytes=76862734711320";
  const std::string too_large = "transfer_size_bytes=76862734729216";
  const std::string packets_rule =
      "transfer_size must fit in 2^32 - 1 packets per flow (of mss_bytes each)";

  // At the ceilings: accepted.
  EXPECT_NO_THROW(with_base([](simnet::WorkloadConfig& c) {
                    c.tcp.mss_bytes = 65483;
                    c.tcp.header_bytes = 52;
                    c.tcp.ack_bytes = 65535;
                  }).base.validate());
  ExperimentPlan at_limit = clean;
  EXPECT_FALSE(apply_param_override(at_limit.base, largest));
  EXPECT_NO_THROW(through_json(at_limit).base.validate());

  // One past each: refused, one message per rule.
  EXPECT_EQ(refusal(spec, with_base([](simnet::WorkloadConfig& c) {
                      c.tcp.mss_bytes = 65484;
                      c.tcp.header_bytes = 52;
                    })),
            "tcp mss_bytes + header_bytes must be <= 65535 (the IPv4 total-length ceiling)");
  EXPECT_EQ(refusal(spec, with_base([](simnet::WorkloadConfig& c) {
                      c.tcp.ack_bytes = 65536;
                    })),
            "tcp ack_bytes must be <= 65535 (the IPv4 total-length ceiling)");
  EXPECT_EQ(refusal(spec, clean, {too_large}), packets_rule);
  ExperimentPlan past_limit = clean;
  EXPECT_FALSE(apply_param_override(past_limit.base, too_large));
  EXPECT_EQ(refusal(spec, through_json(past_limit)), packets_rule);
}

// Plan-JSON values no --param key reaches used to run unchecked: each is
// refused now, on the registered scenario it was found on.
TEST(WorkloadBounds, PlanBaseValuesWithoutAKeyAreRefused) {
  register_builtin_scenarios();
  struct Case {
    std::string scenario;
    std::function<void(simnet::WorkloadConfig&)> edit;
    std::string text;
  };
  const Case cases[] = {
      {"ablation_buffer_sizing",
       [](simnet::WorkloadConfig& c) { c.start_jitter = units::Seconds::of(-1.0); },
       "start_jitter must be >= 0"},
      {"ablation_background_traffic",
       [](simnet::WorkloadConfig& c) { c.background_pareto_shape = -1.0; },
       "background_pareto_shape must be >= 0"},
      {"hop_bottleneck_sweep",
       [](simnet::WorkloadConfig& c) {
         simnet::HopCrossTraffic storm;
         storm.pareto_shape = -1.0;
         c.hop_cross_traffic = {storm};
       },
       "storm 0 pareto_shape must be >= 0"},
  };
  for (const Case& c : cases) {
    const ScenarioSpec* spec = ScenarioRegistry::global().find(c.scenario);
    ASSERT_NE(spec, nullptr) << c.scenario;
    ExperimentPlan plan = *spec->plan;
    c.edit(plan.base);
    EXPECT_EQ(refusal(*spec, through_json(plan)), c.text) << c.scenario;
  }
}

}  // namespace
}  // namespace sss::scenario
