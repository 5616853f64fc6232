// runner.hpp — drive a ScenarioSpec end to end.
//
// Layering: `execute_scenario` is the pure library entry (expand the plan,
// fan out through the SweepExecutor, render/analyze into a ScenarioOutput)
// used by tests; `execute_scenario_shard` runs one deterministic slice of
// the grid (the multi-host path); `run_scenario` adds the console/CSV
// presentation; and `main_from_args` implements the scenario_runner CLI.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace sss::obs {
struct RunManifest;  // obs/manifest.hpp
}

namespace sss::scenario {

// One slice of a sharded sweep.  Two forms:
//   --shard I/N  — shard `index` of `count`, the balanced contiguous block
//                  partition of plan::shard_range;
//   --cells A:B  — an explicit contiguous range [A, B) of GLOBAL grid
//                  cells (`cells` set), which is what the cost-aware sweep
//                  orchestrator launches so block boundaries can follow
//                  measured per-cell wall times instead of cell counts.
// Either way every cell keeps the RNG stream of its GLOBAL index.
struct ShardSpec {
  int index = 0;
  int count = 1;
  std::optional<std::pair<std::size_t, std::size_t>> cells;

  // The [begin, end) slice of `total` grid cells this spec selects.
  // Throws std::invalid_argument when an explicit range is empty or
  // reaches past the grid.
  [[nodiscard]] std::pair<std::size_t, std::size_t> resolve(std::size_t total) const;
};

// Fault-injection harness (`--inject-fault KIND@cell=K`): deliberately
// break this worker at global grid cell K so the orchestrator's recovery
// paths (retry, timeout, merge validation) can be exercised end to end.
//   kCrash    — raise(SIGKILL) right before cell K executes: the process
//               dies mid-run exactly like an OOM-kill or node failure;
//   kHang     — sleep forever before cell K executes (straggler/deadlock);
//   kTruncate — complete normally, then cut the written CSV short
//               (simulates a corrupted artifact reaching the merge).
// Safety gate: the flag is refused unless SSS_FAULT_INJECTION names an
// existing "arm" file, and firing consumes (unlinks) that file — so a
// retried attempt with the identical command line runs clean, and a fault
// can never trigger outside a test/CI harness that armed it.
struct FaultSpec {
  enum class Kind { kCrash, kHang, kTruncate };
  Kind kind = Kind::kCrash;
  std::size_t cell = 0;
};

// "KIND@cell=K" with KIND in {crash, hang, truncate}; nullopt when malformed.
[[nodiscard]] std::optional<FaultSpec> parse_fault_spec(std::string_view text);

// Expand, execute (parallel, deterministic), analyze.  Throws on scenario
// errors.  When `manifest` is non-null it is filled with the per-cell
// runtime metrics of this run (obs/manifest.hpp).
[[nodiscard]] ScenarioOutput execute_scenario(const ScenarioSpec& spec,
                                              const ScenarioContext& context,
                                              obs::RunManifest* manifest = nullptr);

// Execute only this shard's contiguous block of grid cells.  Every cell
// keeps the Xoshiro jump-stream seed of its GLOBAL grid index, so the
// concatenation of all shards' rows (in shard order) is bit-identical to a
// single-process run.  Requires a declarative output spec (per-run rows);
// throws std::invalid_argument for scenarios that reduce across runs.
// A shard manifest carries GLOBAL cell indices, so `--merge` can stitch
// the per-shard manifests back into one cost report.
[[nodiscard]] ScenarioOutput execute_scenario_shard(const ScenarioSpec& spec,
                                                    const ScenarioContext& context,
                                                    const ShardSpec& shard,
                                                    obs::RunManifest* manifest = nullptr);

struct RunnerOptions {
  ScenarioContext context;
  // Write <csv_dir>/<scenario>.csv (or <scenario>.shard<i>of<N>.csv when
  // sharded) when set.
  std::optional<std::string> csv_dir;
  // Suppress the banner/progress chatter (table and notes still print).
  bool quiet = false;
  // Run only this slice of the grid.
  std::optional<ShardSpec> shard;

  // --- observability outputs (obs/), all off by default ---
  // Write a Chrome trace-event timeline of grid cell `timeline_cell`
  // (GLOBAL index) to this path.  Open the file in Perfetto / chrome://tracing.
  std::optional<std::string> timeline_path;
  std::size_t timeline_cell = 0;
  // Write the per-cell runtime manifest (obs::RunManifest JSON) here.
  std::optional<std::string> metrics_path;
  // Print the slowest-cells cost report after the run.
  bool cost_report = false;
  // Enable the scoped phase timers and print their report after the run.
  bool phase_timers = false;
  // Fault-injection harness (test/CI only; see FaultSpec).  Requires the
  // SSS_FAULT_INJECTION arm file.
  std::optional<FaultSpec> inject_fault;
};

// Options assembled from the SSS_* environment knobs (env.hpp).
[[nodiscard]] RunnerOptions options_from_env();

// Run and present one scenario.  Returns a process exit code.
int run_scenario(const ScenarioSpec& spec, const RunnerOptions& options);

// Build a runnable spec from a plan file: the plan is loaded from JSON and,
// when its scenario name matches a registered spec, reattached to that
// spec's metadata and hooks (declarative output wins over analyze).
// Throws std::runtime_error on I/O/parse errors and std::invalid_argument
// when the result could not render any output.
[[nodiscard]] ScenarioSpec spec_from_plan_file(const std::string& path);

// Merge sharded scenario CSVs through the trace layer and write the result
// atomically.  Validation (hard errors, never a silent gap):
//   - headers must agree and every row must match the header width
//     (truncated shard files are refused);
//   - when the inputs follow the runner's shard naming
//     (<scenario>.shard<I>of<N>.csv or <scenario>.cells<A>-<B>.csv), the
//     scenario prefixes must agree, shard indices must cover 0..N-1
//     exactly once (block form) or the cell ranges must tile [0, end)
//     without gap/overlap with row counts matching range sizes (cells
//     form) — inputs are re-ordered by shard/cell position, so argument
//     order cannot scramble the merged table.
// Returns a process exit code.
int merge_csv_files(const std::string& out_path, const std::vector<std::string>& inputs);

// Merge sharded metrics manifests (obs::merge_manifests: cells re-sorted
// by global index, run metadata must agree).  Returns a process exit code.
int merge_manifest_files(const std::string& out_path,
                         const std::vector<std::string>& inputs);

// The scenario_runner CLI:
//   scenario_runner --list [--tag <tag>]
//   scenario_runner --run <name>[,<name>...] [--threads N] [--scale S]
//                   [--seed K] [--csv-dir DIR] [--param k=v] [--shard I/N]
//                   [--timeline FILE [--timeline-cell K]]
//                   [--metrics-out FILE] [--cost-report] [--phase-timers]
//                   [--quiet]
//   scenario_runner --all [--tag <tag>] [...same knobs]
//   scenario_runner --plan <file.json> [...same knobs]
//   scenario_runner --dump-plan <name>
//   scenario_runner --merge <out.csv> <shard.csv> [<shard.csv>...]
//   scenario_runner --merge <out.json> <shard.json> [...]   (metrics manifests)
//   scenario_runner --cost-report <metrics.json>            (standalone report)
//   scenario_runner --check-obs <timeline.json> <metrics.json>
int main_from_args(int argc, char** argv);

}  // namespace sss::scenario
