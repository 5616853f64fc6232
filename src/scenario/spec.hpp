// spec.hpp — the scenario value types.
//
// A ScenarioSpec describes one complete experiment end to end: a
// declarative ExperimentPlan (scenario/plan.hpp: base workload template,
// sweep axes, seed policy, output columns) that expands into concrete
// RunPoints, plus the hooks that turn completed runs into output rows and
// commentary.  Every bench and example in the repository is a ScenarioSpec
// registered under a stable name; `scenario_runner --run <name>` executes
// it through the SweepExecutor.
//
// Design rules:
//   - the plan is pure DATA: it can be expanded, inspected, serialized to
//     JSON (`--dump-plan`), loaded from a config file (`--plan`), and
//     partitioned across hosts (`--shard I/K`, `--cells A:B`) without
//     running any C++ scenario code;
//   - plan expansion is a pure function of (plan, ScenarioContext), so a
//     spec can be expanded and seeded without running anything;
//   - hooks receive results in RUN ORDER (index-stable regardless of
//     executor thread count) and write rows/notes into a ScenarioOutput —
//     they never print, so drivers and tests can capture output exactly;
//   - scenarios whose table is per-run use the plan's declarative output
//     columns (which is what makes them shardable) and may add aggregate
//     notes via `annotate`; scenarios that reduce ACROSS runs (CDF pools,
//     congestion-profile fits, paired comparisons) build their table in a
//     custom `analyze` hook instead;
//   - scenarios with no simulation component (analytic model sweeps, live
//     wall-clock pipelines) have no plan and do all their work in
//     `analyze` — the explicit analyze-only escape hatch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "simnet/fluid.hpp"
#include "simnet/workload.hpp"

namespace sss::obs {
class TimelineRecorder;  // obs/timeline.hpp
}

namespace sss::scenario {

struct ExperimentPlan;  // scenario/plan.hpp

// Which network substrate executes a RunPoint.
enum class Substrate {
  kPacket,  // packet-level TCP simulator (worst-case faithful)
  kFluid,   // flow-level processor-sharing model (optimistic baseline)
};

[[nodiscard]] const char* to_string(Substrate substrate);
[[nodiscard]] std::optional<Substrate> substrate_from_string(std::string_view name);

// One concrete simulation run inside a sweep.
struct RunPoint {
  std::string label;  // e.g. "P=4 c=3" — used in progress and diagnostics
  simnet::WorkloadConfig config;
  Substrate substrate = Substrate::kPacket;
  // When true (default) the SweepExecutor overwrites config.seed with a
  // per-run stream derived from its base seed (Xoshiro256 jump sequence).
  // Set false for runs that must replay an exact externally-chosen seed.
  bool reseed = true;
};

// Execution-time knobs shared by every scenario.
struct ScenarioContext {
  // Duration scale in (0, 1]; multiplies every experiment duration
  // (--scale).  1.0 reproduces the paper-scale runs.
  double scale = 1.0;
  // Base seed for the executor's per-run RNG streams.
  std::uint64_t seed = 42;
  // Worker threads for the sweep; 0 means one per hardware thread.
  int threads = 0;
  // Scenario knob overrides ("key=value" strings from --param), applied
  // to every expanded RunPoint in order after plan expansion.  See scenario/overrides.hpp for the key catalog;
  // unknown keys and malformed values abort the run.
  std::vector<std::string> param_overrides;

  // --- observability attachments (obs/), all off by default.  None of
  // these affect simulation results; they only observe them. ---
  // Record grid cell `timeline_cell` (GLOBAL index, inside the slice that
  // runs) into this recorder; analyze hooks with post-hoc timelines (fig4's staged transfers) render
  // into it too.
  obs::TimelineRecorder* timeline = nullptr;
  std::size_t timeline_cell = 0;
  // Progress hook, invoked from worker threads as (cells_done, total).
  // Must be thread-safe.
  std::function<void(std::size_t, std::size_t)> progress;
  // Invoked on the worker thread immediately before a cell executes, with
  // the cell's GLOBAL grid index (also when only a slice runs).  Must be
  // thread-safe.  Used by the runner's fault-injection harness
  // (--inject-fault) to crash/hang a shard at a precise cell.
  std::function<void(std::size_t)> on_cell_start;
};

// What a scenario produces: one table (header + rows, also exported as
// CSV) plus free-form notes printed after it.  Rows are strings so the
// output is exactly what lands in the CSV — the golden tests compare them
// byte for byte.
struct ScenarioOutput {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> notes;

  void add_row(std::vector<std::string> row) { rows.push_back(std::move(row)); }
  void add_note(std::string note) { notes.push_back(std::move(note)); }
};

struct ScenarioSpec {
  std::string name;         // registry key, e.g. "fig2a_simultaneous"
  std::string title;        // banner line
  std::string paper_ref;    // banner line: which figure/table/section
  std::string description;  // one-liner for `scenario_runner --list`
  std::vector<std::string> tags;  // e.g. {"figure"}, {"ablation"}, {"live"}

  // The declarative experiment grid (shared immutable data; ScenarioSpecs
  // are copied into registries and by the plan-file loader).  Null for
  // analyze-only scenarios.
  std::shared_ptr<const ExperimentPlan> plan;

  using Hook = std::function<void(const ScenarioContext&, const std::vector<RunPoint>&,
                                  const std::vector<simnet::ExperimentResult>&,
                                  ScenarioOutput&)>;

  // Builds the whole output for scenarios WITHOUT declarative output
  // columns (aggregate tables, analytic/live scenarios).  Must be null
  // when the plan declares output columns.
  Hook analyze;
  // Optional: appends aggregate notes AFTER the declarative table has been
  // rendered from the plan's output spec.  Requires declarative output.
  Hook annotate;

  [[nodiscard]] bool has_tag(const std::string& tag) const;
  // True when the plan renders the table declaratively — the property
  // sharded execution requires (rows depend only on each run).
  [[nodiscard]] bool has_declarative_output() const;
};

}  // namespace sss::scenario
