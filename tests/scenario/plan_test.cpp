// Tests for the declarative ExperimentPlan API: axis expansion semantics,
// repeat/seed policy, the JSON round trip (--dump-plan → --plan must be
// bit-identical to the compiled-in registry entry for EVERY grid-shaped
// scenario), and sharded execution (shard-and-merge == single host).
#include "scenario/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace sss::scenario {
namespace {

std::string join(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ",";
    out += fields[i];
  }
  return out;
}

void expect_same_output(const ScenarioOutput& a, const ScenarioOutput& b,
                        const std::string& context) {
  EXPECT_EQ(join(a.header), join(b.header)) << context;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << context;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(join(a.rows[i]), join(b.rows[i])) << context << " row " << i;
  }
  ASSERT_EQ(a.notes.size(), b.notes.size()) << context;
  for (std::size_t i = 0; i < a.notes.size(); ++i) {
    EXPECT_EQ(a.notes[i], b.notes[i]) << context << " note " << i;
  }
}

ScenarioContext smoke_context() {
  ScenarioContext ctx;
  ctx.scale = 0.05;
  ctx.seed = 42;
  ctx.threads = 0;
  return ctx;
}

// --- axes ------------------------------------------------------------------

TEST(ParamAxis, ListExpandsValuesWithLabels) {
  const ParamAxis axis = ParamAxis::list("background_load", {0.0, 0.25}, "bg=");
  const auto points = axis.expand();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].label, "bg=0");
  EXPECT_EQ(points[0].set, (std::vector<std::string>{"background_load=0"}));
  EXPECT_EQ(points[1].label, "bg=0.25");
  EXPECT_EQ(points[1].set, (std::vector<std::string>{"background_load=0.25"}));
}

TEST(ParamAxis, LinspaceHitsExactEndpointsAndIntegers) {
  const ParamAxis axis = ParamAxis::linspace("concurrency", 1.0, 8.0, 8, "c=");
  const auto points = axis.expand();
  ASSERT_EQ(points.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(points[static_cast<std::size_t>(i)].set[0],
              "concurrency=" + std::to_string(i + 1));
    EXPECT_EQ(points[static_cast<std::size_t>(i)].label, "c=" + std::to_string(i + 1));
  }
}

TEST(ParamAxis, LogspaceIsGeometric) {
  const ParamAxis axis = ParamAxis::logspace("transfer_size_mb", 1.0, 100.0, 3);
  const auto points = axis.expand();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].set[0], "transfer_size_mb=1");
  EXPECT_EQ(points[1].set[0], "transfer_size_mb=10");
  EXPECT_EQ(points[2].set[0], "transfer_size_mb=100");
}

TEST(ParamAxis, InvalidAxesThrow) {
  EXPECT_THROW(ParamAxis::list("concurrency", {}).expand(), std::invalid_argument);
  EXPECT_THROW(ParamAxis::linspace("concurrency", 1.0, 8.0, 0).expand(),
               std::invalid_argument);
  EXPECT_THROW(ParamAxis::logspace("concurrency", 0.0, 8.0, 3).expand(),
               std::invalid_argument);
  EXPECT_THROW(ParamAxis::tuples("empty", {}).expand(), std::invalid_argument);
}

// --- expansion -------------------------------------------------------------

ExperimentPlan two_axis_plan() {
  ExperimentPlan plan;
  plan.scenario = "test_plan";
  plan.base = simnet::WorkloadConfig::paper_table2(
      1, 2, simnet::SpawnMode::kSimultaneousBatches);
  plan.axes.push_back(ParamAxis::list("parallel_flows", {2.0, 4.0}, "P="));
  plan.axes.push_back(ParamAxis::linspace("concurrency", 1.0, 3.0, 3, "c="));
  return plan;
}

TEST(ExperimentPlan, CrossProductFirstAxisOutermost) {
  const ExperimentPlan plan = two_axis_plan();
  EXPECT_EQ(plan.cell_count(), 6u);
  ScenarioContext ctx;
  const auto runs = plan.expand(ctx);
  ASSERT_EQ(runs.size(), 6u);
  EXPECT_EQ(runs[0].label, "P=2 c=1");
  EXPECT_EQ(runs[1].label, "P=2 c=2");
  EXPECT_EQ(runs[3].label, "P=4 c=1");
  EXPECT_EQ(runs[5].label, "P=4 c=3");
  EXPECT_EQ(runs[5].config.parallel_flows, 4);
  EXPECT_EQ(runs[5].config.concurrency, 3);
  for (const auto& run : runs) EXPECT_TRUE(run.reseed);
}

TEST(ExperimentPlan, ScaleMultipliesDurationAndStormWindows) {
  ExperimentPlan plan;
  plan.scenario = "scaled";
  plan.axes.push_back(ParamAxis::tuples(
      "storm", {{"stormy", {"storm0_hop=0", "storm0_start_s=5", "storm0_until_s=10"}}}));
  ScenarioContext ctx;
  ctx.scale = 0.5;
  const auto runs = plan.expand(ctx);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_DOUBLE_EQ(runs[0].config.duration.seconds(), 5.0);
  EXPECT_DOUBLE_EQ(runs[0].config.hop_cross_traffic[0].start.seconds(), 2.5);
  EXPECT_DOUBLE_EQ(runs[0].config.hop_cross_traffic[0].until.seconds(), 5.0);

  plan.scale_duration = false;
  const auto unscaled = plan.expand(ctx);
  EXPECT_DOUBLE_EQ(unscaled[0].config.duration.seconds(), 10.0);
  EXPECT_DOUBLE_EQ(unscaled[0].config.hop_cross_traffic[0].until.seconds(), 10.0);
}

TEST(ExperimentPlan, RepeatAddsInnermostAxisWithDistinctStreams) {
  ExperimentPlan plan = two_axis_plan();
  plan.repeat = 2;
  EXPECT_EQ(plan.cell_count(), 12u);
  ScenarioContext ctx;
  const auto runs = plan.expand(ctx);
  ASSERT_EQ(runs.size(), 12u);
  EXPECT_EQ(runs[0].label, "P=2 c=1 rep=0");
  EXPECT_EQ(runs[1].label, "P=2 c=1 rep=1");
  // Repeats are distinct run indices, so the executor gives each its own
  // RNG stream; the configs themselves are identical.
  EXPECT_EQ(runs[0].config.concurrency, runs[1].config.concurrency);
}

TEST(ExperimentPlan, FixedSeedPinsEveryRun) {
  ExperimentPlan plan = two_axis_plan();
  plan.fixed_seed = 777;
  ScenarioContext ctx;
  for (const auto& run : plan.expand(ctx)) {
    EXPECT_EQ(run.config.seed, 777u);
    EXPECT_FALSE(run.reseed);
  }
}

TEST(ExperimentPlan, SubstrateAxisSetsRunSubstrate) {
  ExperimentPlan plan;
  plan.scenario = "substrates";
  plan.axes.push_back(ParamAxis::tuples(
      "substrate", {{"fluid", {"substrate=fluid"}}, {"packet", {"substrate=packet"}}}));
  ScenarioContext ctx;
  const auto runs = plan.expand(ctx);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].substrate, Substrate::kFluid);
  EXPECT_EQ(runs[1].substrate, Substrate::kPacket);
}

TEST(RenderPlanOutput, UnknownMetricThrows) {
  OutputSpec spec;
  spec.columns = {{"x", "no_such_metric"}};
  ScenarioOutput output;
  EXPECT_THROW(render_plan_output(spec, {}, {}, output), std::invalid_argument);
}

TEST(PlanMetricCatalog, ContainsTheDocumentedCore) {
  const auto names = plan_metric_names();
  for (const char* required : {"label", "concurrency", "offered_load", "t_worst_s",
                               "sss", "regime", "loss_rate", "bottleneck_hop"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end()) << required;
  }
}

// --- JSON round trip -------------------------------------------------------

// The satellite requirement: --dump-plan → load → run must be bit-identical
// to the compiled-in registry entry for every grid-shaped scenario.  The
// loaded spec reattaches to the registered hooks by scenario name, so this
// exercises exactly the `scenario_runner --plan file.json` path.
TEST(PlanJsonRoundTrip, EveryGridScenarioRunsIdenticallyFromItsPlanFile) {
  register_builtin_scenarios();
  const ScenarioContext ctx = smoke_context();
  std::size_t grid_scenarios = 0;
  for (const ScenarioSpec* spec : ScenarioRegistry::global().all()) {
    if (spec->plan == nullptr) continue;
    ++grid_scenarios;

    // Serialized text is stable across a parse/re-serialize cycle...
    const std::string text = spec->plan->to_json_text();
    const ExperimentPlan reloaded = ExperimentPlan::from_json_text(text);
    EXPECT_EQ(reloaded.to_json_text(), text) << spec->name;

    // ...and the full dump → load → run path reproduces the registry
    // entry's output byte for byte.
    const std::string path =
        ::testing::TempDir() + "/sss_plan_" + spec->name + ".json";
    {
      std::ofstream out(path);
      ASSERT_TRUE(out.is_open()) << path;
      out << text;
    }
    const ScenarioSpec from_file = spec_from_plan_file(path);
    const ScenarioOutput expected = execute_scenario(*spec, ctx);
    const ScenarioOutput actual = execute_scenario(from_file, ctx);
    expect_same_output(expected, actual, spec->name);
    std::remove(path.c_str());
  }
  // All 24 run-producing scenarios carry plans (18 sweeps + the 3
  // calibration scenarios whose plans carry the fit knobs + the 3 facility
  // contention scenarios); the remaining 6 are the analyze-only escape
  // hatch (analytic/live scenarios).
  EXPECT_EQ(grid_scenarios, 24u);
  EXPECT_EQ(ScenarioRegistry::global().size(), 30u);
}

TEST(PlanJson, RejectsMalformedDocuments) {
  EXPECT_THROW(ExperimentPlan::from_json_text("{}"), std::runtime_error);
  EXPECT_THROW(ExperimentPlan::from_json_text("[1,2]"), std::runtime_error);
  EXPECT_THROW(ExperimentPlan::from_json_text("not json at all"), std::runtime_error);
  register_builtin_scenarios();
  const ScenarioSpec* spec = ScenarioRegistry::global().find("fig2a_simultaneous");
  ASSERT_NE(spec, nullptr);
  std::string text = spec->plan->to_json_text();
  // Damage a required base field.
  const std::size_t pos = text.find("\"duration_s\"");
  ASSERT_NE(pos, std::string::npos);
  std::string damaged = text;
  damaged.replace(pos, 12, "\"duration_x\"");
  EXPECT_THROW(ExperimentPlan::from_json_text(damaged), std::runtime_error);
  // Integral fields reject negative/non-integral/huge values instead of
  // narrowing them (the hand-edited-plan-file protection).
  for (const auto& [field, bad] :
       std::vector<std::pair<std::string, std::string>>{{"\"concurrency\": 1,",
                                                         "\"concurrency\": -2.5,"},
                                                        {"\"repeat\": 1,",
                                                         "\"repeat\": 1e300,"},
                                                        {"\"seed\": \"42\",",
                                                         "\"seed\": -1,"}}) {
    std::string mutated = text;
    const std::size_t at = mutated.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    mutated.replace(at, field.size(), bad);
    EXPECT_THROW(ExperimentPlan::from_json_text(mutated), std::runtime_error) << bad;
  }
}

// --- sharding --------------------------------------------------------------

TEST(ShardRange, BalancedExhaustivePartition) {
  const std::size_t total = 10;
  std::size_t covered = 0;
  std::size_t previous_end = 0;
  for (int i = 0; i < 3; ++i) {
    const auto [begin, end] = shard_range(i, 3, total);
    EXPECT_EQ(begin, previous_end);
    covered += end - begin;
    previous_end = end;
  }
  EXPECT_EQ(covered, total);
  EXPECT_THROW((void)shard_range(3, 3, total), std::invalid_argument);
  EXPECT_THROW((void)shard_range(-1, 3, total), std::invalid_argument);
  // More shards than cells: the surplus shards are legal and empty.
  const auto [b, e] = shard_range(4, 8, 2);
  EXPECT_EQ(b, e);
}

// The acceptance bar: a 2-shard run of a multi-hop sweep, merged in shard
// order, is bit-identical to the single-process run — per-hop columns,
// per-cell RNG streams and all.
TEST(ShardedExecution, TwoShardMergeBitIdenticalToSingleHost) {
  register_builtin_scenarios();
  const ScenarioSpec* spec = ScenarioRegistry::global().find("hop_bottleneck_sweep");
  ASSERT_NE(spec, nullptr);
  ScenarioContext ctx = smoke_context();
  ctx.scale = 0.1;

  const ScenarioOutput full = execute_scenario(*spec, ctx);
  std::vector<std::vector<std::string>> merged;
  for (int i = 0; i < 2; ++i) {
    const ScenarioOutput shard = execute_scenario_shard(*spec, ctx, {i, 2, std::nullopt});
    EXPECT_EQ(join(shard.header), join(full.header));
    merged.insert(merged.end(), shard.rows.begin(), shard.rows.end());
  }
  ASSERT_EQ(merged.size(), full.rows.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(join(merged[i]), join(full.rows[i])) << "row " << i;
  }
}

TEST(ShardedExecution, AggregateScenariosRefuseToShard) {
  register_builtin_scenarios();
  const ScenarioSpec* spec = ScenarioRegistry::global().find("fig3_cdf");
  ASSERT_NE(spec, nullptr);
  const ScenarioContext ctx = smoke_context();
  EXPECT_THROW((void)execute_scenario_shard(*spec, ctx, {0, 2, std::nullopt}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sss::scenario
