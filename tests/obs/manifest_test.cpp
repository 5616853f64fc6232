// manifest_test.cpp — RunManifest serialization, shard merging, and the
// cost report.
//
// The manifest is the runner's durable record of what each grid cell cost
// (--metrics-out) and the input to --cost-report and the manifest-aware
// --merge; these tests pin the JSON round trip, the merge invariants
// (global-index sort, metadata agreement, duplicate rejection) and the
// report's ranking.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/manifest.hpp"

namespace sss::obs {
namespace {

CellMetrics cell(std::size_t index, const std::string& label, double wall_ms) {
  CellMetrics c;
  c.index = index;
  c.label = label;
  c.events_processed = 1000 + index;
  c.queue_high_water = 14;
  c.arena_reserved_bytes = 1 << 20;
  c.sim_duration_s = 1.25;
  c.wall_ms = wall_ms;
  return c;
}

RunManifest manifest_with(std::vector<CellMetrics> cells, std::size_t total) {
  RunManifest m;
  m.scenario = "hop_bottleneck_sweep";
  m.scale = 0.05;
  m.seed = 42;
  m.threads = 4;
  m.total_cells = total;
  m.cells = std::move(cells);
  return m;
}

TEST(Manifest, JsonRoundTripPreservesEveryField) {
  RunManifest before = manifest_with({cell(0, "balanced", 31.5), cell(1, "squeeze", 40.25)}, 2);
  before.seed = (1ULL << 60) + 3;  // past 2^53: only a string holds it
  const RunManifest after = RunManifest::from_json_text(before.to_json_text());
  EXPECT_EQ(after.schema, 1);
  EXPECT_EQ(after.scenario, before.scenario);
  EXPECT_EQ(after.scale, before.scale);
  EXPECT_EQ(after.seed, before.seed);
  EXPECT_EQ(after.threads, before.threads);
  EXPECT_EQ(after.total_cells, before.total_cells);
  ASSERT_EQ(after.cells.size(), 2u);
  EXPECT_EQ(after.cells[1].index, 1u);
  EXPECT_EQ(after.cells[1].label, "squeeze");
  EXPECT_EQ(after.cells[1].events_processed, 1001u);
  EXPECT_EQ(after.cells[1].queue_high_water, 14u);
  EXPECT_EQ(after.cells[1].arena_reserved_bytes, 1u << 20);
  EXPECT_EQ(after.cells[1].sim_duration_s, 1.25);
  EXPECT_EQ(after.cells[1].wall_ms, 40.25);
}

TEST(Manifest, TextExportIsByteStable) {
  const RunManifest m = manifest_with({cell(0, "a", 1.0)}, 1);
  const std::string text = m.to_json_text();
  EXPECT_EQ(RunManifest::from_json_text(text).to_json_text(), text);
}

TEST(Manifest, DeterministicAndTimingFieldsAreSeparated) {
  const std::string text = manifest_with({cell(0, "a", 1.0)}, 1).to_json_text();
  // The schema's core promise: exact-comparable fields live under
  // "deterministic", host measurements under "timing".
  EXPECT_NE(text.find("\"deterministic\""), std::string::npos);
  EXPECT_NE(text.find("\"timing\""), std::string::npos);
  EXPECT_NE(text.find("\"wall_ms\""), std::string::npos);
}

TEST(Manifest, MergeSortsShardsByGlobalIndex) {
  // Shard 1 first on purpose: merge must re-sort by global index.
  const RunManifest shard1 = manifest_with({cell(2, "c", 3.0), cell(3, "d", 4.0)}, 4);
  const RunManifest shard0 = manifest_with({cell(0, "a", 1.0), cell(1, "b", 2.0)}, 4);
  const RunManifest merged = merge_manifests({shard1, shard0});
  ASSERT_EQ(merged.cells.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(merged.cells[i].index, i);
  EXPECT_EQ(merged.total_cells, 4u);
  EXPECT_EQ(merged.scenario, "hop_bottleneck_sweep");
}

TEST(Manifest, MergeRejectsMismatchedRunsAndDuplicates) {
  const RunManifest base = manifest_with({cell(0, "a", 1.0)}, 2);
  RunManifest other_seed = manifest_with({cell(1, "b", 2.0)}, 2);
  other_seed.seed = 7;
  EXPECT_THROW((void)merge_manifests({base, other_seed}), std::invalid_argument);

  const RunManifest duplicate = manifest_with({cell(0, "a", 1.0)}, 2);
  EXPECT_THROW((void)merge_manifests({base, duplicate}), std::invalid_argument);

  EXPECT_THROW((void)merge_manifests({}), std::invalid_argument);
}

TEST(Manifest, CostReportRanksSlowestFirst) {
  const RunManifest m = manifest_with(
      {cell(0, "fast", 10.0), cell(1, "slow", 50.0), cell(2, "mid", 30.0)}, 3);
  const auto rows = cost_report_rows(m, 0);
  ASSERT_EQ(rows.size(), 3u);
  const auto header = cost_report_header();
  ASSERT_EQ(rows[0].size(), header.size());
  // Column 1 is the cell index, column 2 the label.
  EXPECT_EQ(rows[0][2], "slow");
  EXPECT_EQ(rows[1][2], "mid");
  EXPECT_EQ(rows[2][2], "fast");

  const auto top2 = cost_report_rows(m, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0][2], "slow");
}

TEST(Manifest, FromJsonRejectsUnknownSchema) {
  RunManifest m = manifest_with({cell(0, "a", 1.0)}, 1);
  std::string text = m.to_json_text();
  const std::size_t at = text.find("\"schema\": 1");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 11, "\"schema\": 2");
  EXPECT_THROW((void)RunManifest::from_json_text(text), std::runtime_error);
}

}  // namespace
}  // namespace sss::obs
