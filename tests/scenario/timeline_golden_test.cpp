// timeline_golden_test.cpp — byte pins for the --timeline export.
//
// Two properties keep the observability layer honest:
//   1. THREAD IDENTITY: the recorded cell executes on exactly one worker
//      thread and all timestamps are simulation time, so the exported
//      Chrome-trace JSON must be byte-identical at any executor thread
//      count;
//   2. GOLDEN BYTES: the export for a pinned (scenario, scale, seed, cell)
//      must match the fixture committed under tests/data/timeline_golden/ —
//      any drift in event order, float formatting, or track naming is a
//      contract change and must be deliberate.
//
// Regenerate (only for a deliberate format/behaviour change) with these two
// commands (indented lines continue the command above them):
//   scenario_runner --run hop_bottleneck_sweep --scale 0.05 --seed 42
//     --threads 1 --timeline tests/data/timeline_golden/hop_bottleneck_sweep.cell2.json
//     --timeline-cell 2
//   scenario_runner --run fig4_file_vs_stream
//     --timeline tests/data/timeline_golden/fig4_file_vs_stream.json
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/timeline.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace sss::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// First-mismatch diff so a golden failure is readable, then the full pin.
void expect_same_bytes(const std::string& actual, const std::string& golden) {
  std::istringstream golden_lines(golden);
  std::istringstream actual_lines(actual);
  std::string golden_line;
  std::string actual_line;
  std::size_t line_no = 0;
  while (std::getline(golden_lines, golden_line)) {
    ++line_no;
    ASSERT_TRUE(static_cast<bool>(std::getline(actual_lines, actual_line)))
        << "output truncated at line " << line_no;
    ASSERT_EQ(actual_line, golden_line) << "line " << line_no;
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(actual_lines, actual_line)))
      << "output has extra lines past line " << line_no;
  EXPECT_EQ(actual, golden);
}

// The --timeline bytes for hop_bottleneck_sweep cell 2 at the pinned
// context (exactly what the CLI invocation in the header comment writes).
std::string record_hop_sweep(int threads) {
  const ScenarioSpec* spec = ScenarioRegistry::global().find("hop_bottleneck_sweep");
  EXPECT_NE(spec, nullptr);
  obs::TimelineRecorder recorder;
  ScenarioContext ctx;
  ctx.scale = 0.05;
  ctx.seed = 42;
  ctx.threads = threads;
  ctx.timeline = &recorder;
  ctx.timeline_cell = 2;
  (void)execute_scenario(*spec, ctx);
  EXPECT_GT(recorder.event_count(), 0u);
  return recorder.to_chrome_json_text();
}

TEST(TimelineGolden, ByteIdenticalAcrossThreadCounts) {
  register_builtin_scenarios();
  const std::string serial = record_hop_sweep(1);
  const std::string parallel = record_hop_sweep(4);
  expect_same_bytes(parallel, serial);
}

TEST(TimelineGolden, HopSweepMatchesCommittedFixture) {
  register_builtin_scenarios();
  const std::string golden =
      read_file(std::string(SSS_SOURCE_DIR) +
                "/tests/data/timeline_golden/hop_bottleneck_sweep.cell2.json");
  ASSERT_FALSE(golden.empty());
  expect_same_bytes(record_hop_sweep(1), golden);
}

TEST(TimelineGolden, Fig4AnalyticTimelineMatchesCommittedFixture) {
  register_builtin_scenarios();
  const ScenarioSpec* spec = ScenarioRegistry::global().find("fig4_file_vs_stream");
  ASSERT_NE(spec, nullptr);
  obs::TimelineRecorder recorder;
  ScenarioContext ctx;
  ctx.timeline = &recorder;
  (void)execute_scenario(*spec, ctx);
  const std::string golden = read_file(
      std::string(SSS_SOURCE_DIR) + "/tests/data/timeline_golden/fig4_file_vs_stream.json");
  ASSERT_FALSE(golden.empty());
  expect_same_bytes(recorder.to_chrome_json_text(), golden);
}

TEST(TimelineGolden, ScenarioRowsUnchangedByRecording) {
  register_builtin_scenarios();
  const ScenarioSpec* spec = ScenarioRegistry::global().find("hop_bottleneck_sweep");
  ASSERT_NE(spec, nullptr);
  ScenarioContext plain;
  plain.scale = 0.05;
  plain.seed = 42;
  plain.threads = 1;
  ScenarioContext observed = plain;
  obs::TimelineRecorder recorder;
  observed.timeline = &recorder;
  observed.timeline_cell = 2;
  const ScenarioOutput a = execute_scenario(*spec, plain);
  const ScenarioOutput b = execute_scenario(*spec, observed);
  // Observability observes: attaching a recorder must not move a single
  // byte of the scenario's own output.
  EXPECT_EQ(a.header, b.header);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.notes, b.notes);
}

}  // namespace
}  // namespace sss::scenario
