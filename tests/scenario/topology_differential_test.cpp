// topology_differential_test.cpp — byte-identity pin for the packet
// simulator's world builder and hot path.
//
// Refactors of the packet engine (per-cell arena allocation, SoA segment
// state, batched link drains, typed-event orchestration, the single world
// builder) are only admissible if they change NOTHING observable: the
// scenarios below at scale 0.1 / seed 42 must serialize to exactly the CSV
// bytes recorded before the change (tests/data/topology_golden/).  Besides
// the five topology scenarios, fig2b_scheduled pins scheduled-mode
// admission over a single link, ablation_background_traffic pins
// single-link background load, and the two facility_* scenarios pin
// multi-tenant worlds whose routes share links (facility_dispatch_choice
// drops packets on shared hops mid-route).  fig2a_simultaneous,
// headline_claims, degraded_link_failover and ablation_buffer_sizing pin
// the columns that read the network back from the world: SSS, capacity,
// RTT and buffer.  Each scenario runs in-process,
// serializes through the same trace::CsvWriter the scenario_runner CLI
// uses, and the result is compared byte-for-byte against the committed
// golden file.  Any drift in event order, float arithmetic, or formatting
// shows up as a diff here.
//
// Regenerate (only for a deliberate behaviour change) with:
//   scenario_runner --run <name> --scale 0.1 --seed 42
//                   --csv-dir tests/data/topology_golden
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "trace/csv.hpp"

namespace sss::scenario {
namespace {

const char* const kScenarios[] = {
    "ablation_background_traffic",
    "ablation_buffer_sizing",
    "degraded_link_failover",
    "dtn_nic_undersizing",
    "facility_dispatch_choice",
    "facility_policy_matrix",
    "fig2a_simultaneous",
    "fig2b_scheduled",
    "headline_claims",
    "hop_bottleneck_sweep",
    "lcls_streaming_feasibility",
    "moving_bottleneck",
    "wan_cross_traffic",
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Serialize a scenario output exactly like write_csv_file does for the CLI.
std::string serialize(const ScenarioOutput& output) {
  std::ostringstream out;
  trace::CsvWriter writer(out);
  writer.write_row(output.header);
  for (const auto& row : output.rows) writer.write_row(row);
  return out.str();
}

TEST(TopologyDifferential, GoldenCsvBytesUnchanged) {
  register_builtin_scenarios();
  for (const char* name : kScenarios) {
    SCOPED_TRACE(name);
    const ScenarioSpec* spec = ScenarioRegistry::global().find(name);
    ASSERT_NE(spec, nullptr);

    ScenarioContext ctx;
    ctx.scale = 0.1;
    ctx.seed = 42;
    ctx.threads = 1;
    const ScenarioOutput output = execute_scenario(*spec, ctx);

    const std::string golden = read_file(
        std::string(SSS_SOURCE_DIR) + "/tests/data/topology_golden/" + name + ".csv");
    const std::string actual = serialize(output);
    // EXPECT_EQ on the whole string gives an unreadable dump on failure;
    // compare line-by-line first, then pin total equality.
    std::istringstream golden_lines(golden);
    std::istringstream actual_lines(actual);
    std::string golden_line;
    std::string actual_line;
    std::size_t line_no = 0;
    while (std::getline(golden_lines, golden_line)) {
      ++line_no;
      ASSERT_TRUE(static_cast<bool>(std::getline(actual_lines, actual_line)))
          << "output truncated at line " << line_no;
      EXPECT_EQ(actual_line, golden_line) << "line " << line_no;
    }
    EXPECT_FALSE(static_cast<bool>(std::getline(actual_lines, actual_line)))
        << "output has extra rows past line " << line_no;
    EXPECT_EQ(actual, golden);  // catches trailing-byte / newline drift
  }
}

}  // namespace
}  // namespace sss::scenario
