// runner.hpp — drive a ScenarioSpec end to end.
//
// Layering: `execute_scenario` is the pure library entry (expand the plan,
// fan out the whole grid or one slice of it through the SweepExecutor,
// render/analyze into a ScenarioOutput); `run_scenario` adds the
// console/CSV presentation; and `main_from_args` implements the
// scenario_runner CLI.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "scenario/plan.hpp"
#include "scenario/spec.hpp"
#include "trace/csv.hpp"

namespace sss::obs {
struct RunManifest;  // obs/manifest.hpp
}

namespace sss::scenario {

// One slice of a sweep grid, in either CLI spelling:
//   --shard I/N  — shard `index` of `count`, the balanced contiguous block
//                  shard_range(I, N, total);
//   --cells A:B  — an explicit contiguous range [A, B) of GLOBAL grid
//                  cells (`cells` set), which is what the cost-aware sweep
//                  orchestrator launches so block boundaries can follow
//                  measured per-cell wall times instead of cell counts.
// Both resolve to one CellRange; every cell keeps the RNG stream of its
// GLOBAL index, and the part files are named by that range (part_stem).
struct ShardSpec {
  int index = 0;
  int count = 1;
  std::optional<CellRange> cells;

  // The slice of `total` grid cells this spec selects (unchecked against
  // `total`: execute_scenario refuses a range past the grid).
  [[nodiscard]] CellRange resolve(std::size_t total) const;
};

// File stem of a slice's part files, "<scenario>.cells<A>-<B>of<N>" for the
// cells [A, B) of an N-cell grid.  `--shard`, `--cells` and the sweep
// orchestrator's workers all name parts this way, and read_part
// parses it back.
[[nodiscard]] std::string part_stem(const std::string& scenario, CellRange cells,
                                    std::size_t total);

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
// errors.  Before any cell runs, every cell of the grid (with the --param
// overrides applied) must pass WorkloadConfig::validate(); the error names
// the first bad cell's index and label.  When `manifest` is non-null it is
// filled with the per-cell runtime metrics of this run (obs/manifest.hpp).
//
// With `cells`, only that slice of the grid runs.  Every cell keeps the
// Xoshiro jump-stream seed of its GLOBAL grid index, so the concatenation
// of all slices' rows (in cell order) is bit-identical to a whole-grid run;
// a slice manifest carries GLOBAL cell indices, so `--merge` can stitch
// the per-slice manifests back into one cost report.  A slice requires a
// declarative output spec (per-run rows) and gets no `annotate` notes;
// std::invalid_argument for scenarios that reduce across runs and for a
// range past the grid.
[[nodiscard]] ScenarioOutput execute_scenario(const ScenarioSpec& spec,
                                              const ScenarioContext& context,
                                              obs::RunManifest* manifest = nullptr,
                                              std::optional<CellRange> cells = std::nullopt);

struct RunnerOptions {
  ScenarioContext context;
  // Write <csv_dir>/<scenario>.csv (or <part_stem>.csv for a slice) when
  // set.
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

// Run and present one scenario.  Returns a process exit code.
int run_scenario(const ScenarioSpec& spec, const RunnerOptions& options);

// Build a runnable spec from a plan file: the plan is loaded from JSON and,
// when its scenario name matches a registered spec, reattached to that
// spec's metadata and hooks (declarative output wins over analyze).
// Throws std::runtime_error on I/O/parse errors and std::invalid_argument
// when the result could not render any output.
[[nodiscard]] ScenarioSpec spec_from_plan_file(const std::string& path);

// One slice's part file, as read_part found it.
struct Part {
  std::string path;
  std::string scenario;
  CellRange cells;         // [A, B)
  std::size_t total = 0;   // N, the grid's cell count
  trace::CsvTable table;
};

// Read and check one part file.  Its name must be
// <scenario>.cells<A>-<B>of<N>.csv (part_stem) with A <= B <= N; the file
// must be readable, have a non-empty header and hold exactly B - A rows,
// each as wide as the header.  Throws std::invalid_argument naming the file
// and what is wrong.
[[nodiscard]] Part read_part(const std::string& path);

struct MergedParts {
  trace::CsvTable table;
  std::size_t total = 0;           // N
  std::vector<CellRange> missing;  // ranges of [0, N) no part covers, in order
};

// Join parts read_part returned.  They must name one scenario and one N,
// share one header and not overlap (std::invalid_argument otherwise); their
// rows are concatenated in range order, whatever the order of `parts`.  The
// cells no part covers are returned in `missing`, not refused: the sweep
// orchestrator merges what survived, and --merge refuses any gap.
[[nodiscard]] MergedParts merge_parts(std::vector<Part> parts);

// `--merge` of scenario CSVs: read_part each input, merge_parts them, refuse
// the first missing range ("missing cells [A, B)"), and write the table
// atomically.  A name other than a part name, the old shard<I>of<N> and
// cells<A>-<B> forms included, is refused.  Returns a process exit code.
int merge_csv_files(const std::string& out_path, const std::vector<std::string>& inputs);

// Merge sharded metrics manifests (obs::merge_manifests: cells re-sorted
// by global index, run metadata must agree).  Returns a process exit code.
int merge_manifest_files(const std::string& out_path,
                         const std::vector<std::string>& inputs);

// The scenario_runner CLI:
//   scenario_runner --list [--tag <tag>]
//   scenario_runner --run <name>[,<name>...] [--threads N] [--scale S]
//                   [--seed K] [--csv-dir DIR] [--param k=v]
//                   [--shard I/N | --cells A:B]
//                   [--timeline FILE [--timeline-cell K]]
//                   [--metrics-out FILE] [--cost-report] [--phase-timers]
//                   [--quiet]
//   scenario_runner --all [--tag <tag>] [...same knobs]
//   scenario_runner --plan <file.json> [...same knobs]
//   scenario_runner --dump-plan <name>
//   scenario_runner --merge <out.csv> <part.csv> [<part.csv>...]
//   scenario_runner --merge <out.json> <shard.json> [...]   (metrics manifests)
//   scenario_runner --cost-report <metrics.json>            (standalone report)
//   scenario_runner --check-obs <timeline.json> <metrics.json>
int main_from_args(int argc, char** argv);

}  // namespace sss::scenario
