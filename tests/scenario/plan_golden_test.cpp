// plan_golden_test.cpp — byte pins for the plan JSON that --dump-plan
// writes and --plan reads.
//
// The round-trip test in plan_test.cpp only proves the writer and reader
// agree with each other: a key renamed in both directions would pass it
// and silently break every plan file on disk.  These fixtures pin the
// bytes themselves, one per section of the `base` codec:
//   - facility_policy_matrix     topology, tenants, scheduler
//   - wan_cross_traffic          path_hops
//   - fit_alpha_theta_synthetic  calibration
//   - storm_storage_fixed_seed   hop_cross_traffic, storage, fixed_seed
//     (no registered plan sets these, so the test builds one)
//
// Regenerate (only for a deliberate format change) with
//   scenario_runner --dump-plan NAME > tests/data/plan_golden/NAME.json
// for the registered scenarios; the constructed plan's actual bytes are
// written next to the test binary as plan_golden.<name>.actual.json on a
// mismatch.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "scenario/plan.hpp"
#include "scenario/registry.hpp"
#include "trace/json.hpp"

namespace sss::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Compare against tests/data/plan_golden/<name>.json, keeping the actual
// bytes for inspection when they differ.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string golden =
      read_file(std::string(SSS_SOURCE_DIR) + "/tests/data/plan_golden/" + name + ".json");
  if (actual != golden) {
    std::ofstream(std::string(SSS_BINARY_DIR) + "/tests/plan_golden." + name +
                      ".actual.json",
                  std::ios::binary)
        << actual;
  }
  EXPECT_EQ(actual, golden) << name;
}

ExperimentPlan storm_storage_plan() {
  ExperimentPlan plan;
  plan.scenario = "storm_storage_fixed_seed";
  plan.fixed_seed = (1ULL << 60) + 3;  // past 2^53: only a string holds it
  plan.repeat = 2;
  simnet::WorkloadConfig& base = plan.base;
  base.path_hops = {simnet::LinkConfig{"dtn", units::DataRate::gigabits_per_second(40.0),
                                       units::Seconds::millis(0.5),
                                       units::Bytes::megabytes(16.0)},
                    simnet::LinkConfig{"wan", units::DataRate::gigabits_per_second(10.0),
                                       units::Seconds::millis(7.25),
                                       units::Bytes::megabytes(48.0)}};
  simnet::HopCrossTraffic storm;
  storm.hop = 1;
  storm.load = 0.35;
  storm.start = units::Seconds::of(1.5);
  storm.until = units::Seconds::of(4.25);
  storm.mean_flow_size = units::Bytes::megabytes(32.0);
  storm.pareto_shape = 1.2;
  base.hop_cross_traffic = {storm};
  base.storage.zipf_skew = 1.1;
  plan.axes = {ParamAxis::list("zipf_skew", {0.0, 0.7}, "s=")};
  return plan;
}

TEST(PlanGolden, RegisteredPlansMatchCommittedBytes) {
  register_builtin_scenarios();
  for (const char* name :
       {"facility_policy_matrix", "wan_cross_traffic", "fit_alpha_theta_synthetic"}) {
    const ScenarioSpec* spec = ScenarioRegistry::global().find(name);
    ASSERT_NE(spec, nullptr) << name;
    ASSERT_NE(spec->plan, nullptr) << name;
    expect_golden(name, spec->plan->to_json_text());
  }
}

TEST(PlanGolden, StormStorageAndFixedSeedMatchCommittedBytes) {
  const ExperimentPlan plan = storm_storage_plan();
  const std::string text = plan.to_json_text();
  expect_golden("storm_storage_fixed_seed", text);
  // The reader rebuilds the sections the writer started from.
  const ExperimentPlan reloaded = ExperimentPlan::from_json(trace::JsonValue::parse(text));
  EXPECT_EQ(reloaded.fixed_seed, plan.fixed_seed);
  EXPECT_TRUE(reloaded.base.storage == plan.base.storage);
  ASSERT_EQ(reloaded.base.hop_cross_traffic.size(), 1u);
  const simnet::HopCrossTraffic& storm = reloaded.base.hop_cross_traffic[0];
  EXPECT_EQ(storm.hop, 1);
  EXPECT_EQ(storm.load, 0.35);
  EXPECT_EQ(storm.until.seconds(), 4.25);
  EXPECT_EQ(storm.mean_flow_size.bytes(), 32e6);
  ASSERT_EQ(reloaded.base.path_hops.size(), 2u);
  EXPECT_EQ(reloaded.base.path_hops[1].name, "wan");
  EXPECT_EQ(reloaded.to_json_text(), text);
}

// A hand-edited out-of-range integer is refused with its section and
// field named, not narrowed.
TEST(PlanGolden, OutOfRangeIntegerNamesSectionAndField) {
  register_builtin_scenarios();
  const ScenarioSpec* spec = ScenarioRegistry::global().find("facility_policy_matrix");
  ASSERT_NE(spec, nullptr);
  const std::string text = spec->plan->to_json_text();
  for (const auto& [field, bad, expected] :
       {std::tuple<std::string, std::string, std::string>{
            "\"slots\": 2", "\"slots\": 0", "scheduler slots"},
        {"\"concurrency\": 2,", "\"concurrency\": 0.5,", "tenant concurrency"},
        {"\"mss_bytes\": 8948", "\"mss_bytes\": -1", "mss_bytes"}}) {
    std::string mutated = text;
    const std::size_t at = mutated.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    mutated.replace(at, field.size(), bad);
    try {
      (void)ExperimentPlan::from_json(trace::JsonValue::parse(mutated));
      ADD_FAILURE() << bad << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(expected + " must be an integer"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace sss::scenario
