// Tests for the scenario registry: registration, lookup, duplicate and
// invalid-spec rejection, and the built-in scenario inventory.
#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "scenario/plan.hpp"

namespace sss::scenario {
namespace {

ScenarioSpec minimal_spec(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.title = name;
  spec.paper_ref = "test";
  spec.description = "test scenario";
  spec.analyze = [](const ScenarioContext&, const std::vector<RunPoint>&,
                    const std::vector<simnet::ExperimentResult>&, ScenarioOutput&) {};
  return spec;
}

TEST(ScenarioRegistry, AddAndFind) {
  ScenarioRegistry registry;
  registry.add(minimal_spec("alpha"));
  registry.add(minimal_spec("beta"));
  EXPECT_EQ(registry.size(), 2u);
  ASSERT_NE(registry.find("alpha"), nullptr);
  EXPECT_EQ(registry.find("alpha")->name, "alpha");
  EXPECT_EQ(registry.find("missing"), nullptr);
  EXPECT_TRUE(registry.contains("beta"));
  EXPECT_FALSE(registry.contains("gamma"));
}

TEST(ScenarioRegistry, NamesAreSorted) {
  ScenarioRegistry registry;
  registry.add(minimal_spec("zeta"));
  registry.add(minimal_spec("alpha"));
  registry.add(minimal_spec("mid"));
  const auto specs = registry.all();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0]->name, "alpha");
  EXPECT_EQ(specs[1]->name, "mid");
  EXPECT_EQ(specs[2]->name, "zeta");
}

TEST(ScenarioRegistry, RejectsDuplicates) {
  ScenarioRegistry registry;
  registry.add(minimal_spec("once"));
  EXPECT_THROW(registry.add(minimal_spec("once")), std::invalid_argument);
}

TEST(ScenarioRegistry, RejectsInvalidSpecs) {
  ScenarioRegistry registry;
  EXPECT_THROW(registry.add(minimal_spec("")), std::invalid_argument);
  ScenarioSpec no_analyze = minimal_spec("no-analyze");
  no_analyze.analyze = nullptr;
  EXPECT_THROW(registry.add(no_analyze), std::invalid_argument);
}

TEST(BuiltinScenarios, RegistersTheFullInventory) {
  register_builtin_scenarios();
  register_builtin_scenarios();  // idempotent: no duplicate-registration throw
  const ScenarioRegistry& registry = ScenarioRegistry::global();

  // The acceptance bar: every migrated bench plus at least 3 new scenarios.
  EXPECT_GE(registry.size(), 10u);
  for (const char* name :
       {"fig2a_simultaneous", "fig2b_scheduled", "fig3_cdf", "fig4_file_vs_stream",
        "table3_case_study", "headline_claims", "ablation_background_traffic",
        "ablation_buffer_sizing", "ablation_fluid_vs_packet", "sensitivity_surfaces",
        "multi_tenant_storm", "degraded_link_failover", "burst_mode_detector"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }

  int new_scenarios = 0;
  for (const ScenarioSpec* spec : registry.all()) {
    if (spec->has_tag("new")) ++new_scenarios;
  }
  EXPECT_GE(new_scenarios, 3);
}

TEST(BuiltinScenarios, SweepScenariosExpandRuns) {
  register_builtin_scenarios();
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  ScenarioContext ctx;
  ctx.scale = 0.1;
  for (const ScenarioSpec* spec : registry.all()) {
    if (!spec->has_tag("sweep")) continue;
    ASSERT_NE(spec->plan, nullptr) << spec->name;
    const auto runs = spec->plan->expand(ctx);
    EXPECT_FALSE(runs.empty()) << spec->name;
    EXPECT_EQ(runs.size(), spec->plan->cell_count()) << spec->name;
    for (const auto& run : runs) {
      EXPECT_NO_THROW(run.config.validate()) << spec->name << " " << run.label;
    }
  }
}

}  // namespace
}  // namespace sss::scenario
