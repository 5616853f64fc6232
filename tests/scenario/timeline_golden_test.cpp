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

#include <algorithm>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>

#include "obs/timeline.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
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

// A slice keeps GLOBAL cell identity: recording cell 2 through the slice
// [1, 3) gives the same bytes as the unsharded pin, and the cell-start
// hook sees global indices only.
TEST(TimelineGolden, SliceRecordsGlobalCellByteIdentical) {
  register_builtin_scenarios();
  const ScenarioSpec* spec = ScenarioRegistry::global().find("hop_bottleneck_sweep");
  ASSERT_NE(spec, nullptr);
  obs::TimelineRecorder recorder;
  std::mutex mutex;
  std::set<std::size_t> started;
  ScenarioContext ctx;
  ctx.scale = 0.05;
  ctx.seed = 42;
  ctx.threads = 2;
  ctx.timeline = &recorder;
  ctx.timeline_cell = 2;
  ctx.on_cell_start = [&](std::size_t cell) {
    const std::lock_guard<std::mutex> lock(mutex);
    started.insert(cell);
  };
  (void)execute_scenario(*spec, ctx, nullptr, CellRange{1, 3});
  EXPECT_EQ(started, (std::set<std::size_t>{1, 2}));
  const std::string golden =
      read_file(std::string(SSS_SOURCE_DIR) +
                "/tests/data/timeline_golden/hop_bottleneck_sweep.cell2.json");
  ASSERT_FALSE(golden.empty());
  expect_same_bytes(recorder.to_chrome_json_text(), golden);
}

// A slice that does not hold the timeline cell is refused, naming the
// cell and the slice, rather than writing an empty timeline.
TEST(TimelineGolden, CellOutsideSliceIsRefused) {
  register_builtin_scenarios();
  const ScenarioSpec* spec = ScenarioRegistry::global().find("hop_bottleneck_sweep");
  ASSERT_NE(spec, nullptr);
  obs::TimelineRecorder recorder;
  ScenarioContext ctx;
  ctx.scale = 0.05;
  ctx.timeline = &recorder;
  ctx.timeline_cell = 3;
  try {
    (void)execute_scenario(*spec, ctx, nullptr, CellRange{0, 2});
    ADD_FAILURE() << "timeline cell 3 outside cells [0, 2) was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("timeline cell 3"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("[0, 2)"), std::string::npos) << e.what();
  }
  EXPECT_EQ(recorder.event_count(), 0u);
}

// The per-hop utilization counters are a fraction of link capacity: a
// saturated hop reads about 1, never several times over (a bits-per-byte
// slip would read ~8).
TEST(TimelineGolden, HopSweepUtilizationCountersAreCapacityFractions) {
  const std::string golden =
      read_file(std::string(SSS_SOURCE_DIR) +
                "/tests/data/timeline_golden/hop_bottleneck_sweep.cell2.json");
  ASSERT_FALSE(golden.empty());
  const std::string suffix = ":utilization";
  std::size_t samples = 0;
  double peak = 0.0;
  const trace::JsonValue doc = trace::JsonValue::parse(golden);
  for (const trace::JsonValue& event : doc.at("traceEvents").as_array()) {
    const trace::JsonValue* name = event.find("name");  // "E" events have none
    if (name == nullptr || !name->as_string().ends_with(suffix)) continue;
    const double value = event.at("args").at("value").as_double();
    EXPECT_LE(value, 1.5) << name->as_string() << " at ts " << event.at("ts").as_double();
    peak = std::max(peak, value);
    ++samples;
  }
  EXPECT_GT(samples, 0u);
  EXPECT_GE(peak, 0.9) << "no hop ever reads saturated";
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
