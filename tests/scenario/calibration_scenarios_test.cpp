// Tests for the calibration scenario family: the calibrate_from_trace
// golden (byte-for-byte rows from the demo trace, thread-count invariant),
// the closed-loop alpha/theta recovery acceptance bar (<= 5% error), the
// trace_path binding reaching the scenario through --param, and the
// calibrate CLI's JSON report pinned against the checked-in golden.
//
// If a change deliberately alters the demo trace or the fit, regenerate with
// these two commands (indented lines continue the command above them):
//   calibrate --write-demo-trace tests/data/calibration_trace.csv
//   calibrate --trace tests/data/calibration_trace.csv
//             --report tests/data/calibration_report.golden.json
// and update kGoldenRows below.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment_io.hpp"
#include "core/fitting.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "trace/parse.hpp"

namespace sss::scenario {
namespace {

const char* const kGoldenHeader =
    "utilization,t_mean_s,t_io_s,t_worst_s,t_theoretical_s,sss";

// Demo trace (alpha 0.85, theta 1.25, 5% noise) bucketed into 6 levels.
const std::vector<std::string> kGoldenRows = {
    "0.16,0.25198,0.0623112,0.324148,0.16,2.02593",
    "0.32,0.319103,0.0791549,0.410746,0.16,2.56716",
    "0.48,0.382654,0.0960225,0.492756,0.16,3.07973",
    "0.64,0.44876,0.110131,0.579265,0.16,3.62041",
    "0.8,0.51063,0.128159,0.659289,0.16,4.12056",
    "0.96,0.568565,0.142351,0.733382,0.16,4.58364",
};

std::string join(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ",";
    out += fields[i];
  }
  return out;
}

ScenarioOutput run_scenario_by_name(const std::string& name, int threads,
                                    std::vector<std::string> params = {}) {
  register_builtin_scenarios();
  const ScenarioSpec* spec = ScenarioRegistry::global().find(name);
  EXPECT_NE(spec, nullptr) << name;
  ScenarioContext ctx;
  ctx.scale = 0.1;
  ctx.seed = 42;
  ctx.threads = threads;
  ctx.param_overrides = std::move(params);
  return execute_scenario(*spec, ctx);
}

TEST(CalibrationScenarios, AllThreeAreRegisteredAndTagged) {
  register_builtin_scenarios();
  for (const char* name : {"calibrate_from_trace", "fit_alpha_theta_synthetic",
                           "calibration_extrapolation"}) {
    const ScenarioSpec* spec = ScenarioRegistry::global().find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_TRUE(spec->has_tag("calibration")) << name;
    ASSERT_NE(spec->plan, nullptr) << name;
  }
}

TEST(CalibrationScenarios, GoldenCalibrateFromTraceRows) {
  const ScenarioOutput output = run_scenario_by_name("calibrate_from_trace", 1);
  EXPECT_EQ(join(output.header), kGoldenHeader);
  ASSERT_EQ(output.rows.size(), kGoldenRows.size());
  for (std::size_t i = 0; i < output.rows.size(); ++i) {
    EXPECT_EQ(join(output.rows[i]), kGoldenRows[i]) << "row " << i;
  }
}

TEST(CalibrationScenarios, GoldenRowsIdenticalAtManyThreads) {
  const ScenarioOutput parallel = run_scenario_by_name("calibrate_from_trace", 4);
  ASSERT_EQ(parallel.rows.size(), kGoldenRows.size());
  for (std::size_t i = 0; i < parallel.rows.size(); ++i) {
    EXPECT_EQ(join(parallel.rows[i]), kGoldenRows[i]) << "row " << i;
  }
}

// trace_path travels through the ONE binding table; the checked-in fixture
// holds the demo trace's bytes, so pointing at it must reproduce the
// built-in rows exactly.
TEST(CalibrationScenarios, TracePathParamReachesTheScenario) {
  const std::string fixture =
      std::string(SSS_SOURCE_DIR) + "/tests/data/calibration_trace.csv";
  const ScenarioOutput output =
      run_scenario_by_name("calibrate_from_trace", 1, {"trace_path=" + fixture});
  ASSERT_EQ(output.rows.size(), kGoldenRows.size());
  for (std::size_t i = 0; i < output.rows.size(); ++i) {
    EXPECT_EQ(join(output.rows[i]), kGoldenRows[i]) << "row " << i;
  }
  // The source note names the file instead of the built-in trace.
  ASSERT_FALSE(output.notes.empty());
  EXPECT_NE(output.notes.front().find(fixture), std::string::npos);
}

double cell_as_double(const std::vector<std::string>& row, std::size_t index) {
  const auto parsed = trace::parse_double(row.at(index));
  EXPECT_TRUE(parsed.has_value()) << row.at(index);
  return parsed.value_or(-1.0);
}

// The acceptance bar: simulate sweeps with known ModelParameters, export
// through the experiment_io trace format, re-ingest, refit — every fitted
// alpha/theta must land within 5% of its ground truth.
TEST(CalibrationScenarios, ClosedLoopRecoveryWithinFivePercent) {
  const ScenarioOutput output = run_scenario_by_name("fit_alpha_theta_synthetic", 0);
  ASSERT_EQ(output.rows.size(), 9u);  // 3 alphas x 3 thetas
  for (const auto& row : output.rows) {
    ASSERT_EQ(row.size(), 8u);
    const double alpha_err = cell_as_double(row, 3);
    const double theta_err = cell_as_double(row, 6);
    EXPECT_LE(alpha_err, 5.0) << join(row);
    EXPECT_LE(theta_err, 5.0) << join(row);
    EXPECT_GE(cell_as_double(row, 7), 0.99) << join(row);  // r_squared
  }
}

TEST(CalibrationScenarios, ExtrapolationScenarioProducesTheSectionFiveWindows) {
  const ScenarioOutput output = run_scenario_by_name("calibration_extrapolation", 0);
  ASSERT_EQ(output.rows.size(), 2u);
  EXPECT_EQ(output.rows[0][0], "2");  // 2 GB window at 64%
  EXPECT_EQ(output.rows[1][0], "3");  // 3 GB window at 96%
  for (const auto& row : output.rows) {
    EXPECT_GT(cell_as_double(row, 2), 1.0);  // SSS above the ideal line
    EXPECT_GT(cell_as_double(row, 3), 0.0);  // a positive prediction
  }
}

// The calibrate CLI's --report bytes, pinned: the library builder (which
// the CLI prints verbatim) must reproduce the committed golden.
TEST(CalibrationScenarios, ReportGoldenMatchesCheckedInFixture) {
  const std::string path =
      std::string(SSS_SOURCE_DIR) + "/tests/data/calibration_report.golden.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const core::TraceCalibration cal =
      core::calibrate_transfer_trace(core::demo_transfer_trace());
  EXPECT_EQ(core::calibration_report_json(cal).dump(2) + "\n", buffer.str());
}

}  // namespace
}  // namespace sss::scenario
