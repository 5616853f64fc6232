// plan.hpp — the declarative ExperimentPlan: sweep grids as data.
//
// The paper's contribution is a quantitative model one interrogates by
// sweeping workload/network parameters.  An ExperimentPlan captures such a
// sweep as a value: a base WorkloadConfig template, an ordered list of
// ParamAxis objects whose cross product spans the grid, a repeat/seed
// policy, and a declarative output spec (column headers bound to named
// derived metrics).  Because the plan is data rather than a `make_runs`
// closure, it can be
//   - serialized to JSON (`scenario_runner --dump-plan <name>`), edited,
//     and loaded back (`--plan file.json`) without recompiling;
//   - partitioned deterministically across hosts (`--shard I/K` or
//     `--cells A:B`, both one CellRange): every cell keeps the per-run
//     Xoshiro jump stream of its GLOBAL grid index, so shard-and-merge
//     output is bit-identical to a single-host run;
//   - inspected and validated without executing anything.
//
// Axis values are applied through the scenario/overrides.hpp binding
// catalog — the SAME name→field map `--param k=v` uses — so there is
// exactly one spelling of every tunable field.
//
// Scale semantics: plan fields are expressed at scale 1.0 (paper-length
// durations, hop-storm windows in absolute seconds).  Expansion multiplies
// the duration and every hop-storm window by ScenarioContext::scale unless
// `scale_duration` is false (burst scenarios whose burst/overload ratio
// the scale would distort).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "trace/json.hpp"

namespace sss::scenario {

// One cell of one axis: a label fragment plus the "key=value" assignments
// (overrides.hpp catalog) that configure it.
struct AxisPoint {
  std::string label;             // "" = contributes nothing to the run label
  std::vector<std::string> set;  // applied in order on top of the base template

  friend bool operator==(const AxisPoint&, const AxisPoint&) = default;
};

// One sweep dimension.  The grid is the cross product of all axes, first
// axis outermost (slowest-varying) — matching the nested-loop order the
// closure-based scenarios used.
struct ParamAxis {
  enum class Kind {
    kList,      // explicit value strings for one catalog key
    kLinspace,  // `count` evenly spaced values over [from, to]
    kLogspace,  // `count` geometrically spaced values over [from, to]
    kTuples,    // explicit points, each setting several coupled keys
  };

  Kind kind = Kind::kTuples;
  std::string key;   // catalog key (kList/kLinspace/kLogspace)
  std::string name;  // axis display name; defaults to `key` when empty
  std::vector<std::string> values;  // kList: exact value strings
  double from = 0.0;                // kLinspace/kLogspace endpoints (inclusive)
  double to = 0.0;
  int count = 0;
  // Generated labels are label_prefix + <pretty value> + label_suffix.
  std::string label_prefix;
  std::string label_suffix;
  std::vector<AxisPoint> points;  // kTuples

  // Builders.
  [[nodiscard]] static ParamAxis list(std::string key, const std::vector<double>& values,
                                      std::string label_prefix = "",
                                      std::string label_suffix = "");
  [[nodiscard]] static ParamAxis list_strings(std::string key,
                                              std::vector<std::string> values,
                                              std::string label_prefix = "",
                                              std::string label_suffix = "");
  [[nodiscard]] static ParamAxis linspace(std::string key, double from, double to,
                                          int count, std::string label_prefix = "",
                                          std::string label_suffix = "");
  [[nodiscard]] static ParamAxis tuples(std::string name, std::vector<AxisPoint> points);

  // Concrete points, in grid order.  Throws std::invalid_argument on an
  // empty or malformed axis (count < 1, logspace endpoints <= 0, ...).
  [[nodiscard]] std::vector<AxisPoint> expand() const;

  friend bool operator==(const ParamAxis&, const ParamAxis&) = default;
};

// One output column: a CSV header bound to a named derived metric from the
// plan metric catalog (render_plan_output rejects unknown names).
struct OutputColumn {
  std::string header;
  std::string metric;

  friend bool operator==(const OutputColumn&, const OutputColumn&) = default;
};

// Declarative per-run table: each completed run contributes exactly one
// row, computed column by column from the metric catalog — which is what
// makes shard-and-merge output equal to a single-host run.
struct OutputSpec {
  std::vector<OutputColumn> columns;
  // Trailing per-hop column groups (simnet::hop_csv_header/values).
  int hop_columns = 0;
  // Static notes appended after the table (aggregate notes are added by a
  // spec's `annotate` hook instead and are not part of the plan).
  std::vector<std::string> notes;

  friend bool operator==(const OutputSpec&, const OutputSpec&) = default;
};

struct ExperimentPlan {
  // Registry name of the scenario this plan drives.  A loaded plan file
  // reattaches to the registered hooks (annotate/analyze) via this name.
  std::string scenario;
  simnet::WorkloadConfig base;  // the workload template every cell starts from
  Substrate substrate = Substrate::kPacket;
  // Multiply duration + hop-storm windows by ScenarioContext::scale.
  bool scale_duration = true;
  // Repeats per grid cell (an implicit innermost "rep" axis); each repeat
  // is a distinct run index and therefore a distinct RNG stream.
  int repeat = 1;
  // Seed policy: unset = per-run executor streams (Xoshiro jump sequence
  // by global run index); set = every run replays exactly this seed.
  std::optional<std::uint64_t> fixed_seed;
  std::vector<ParamAxis> axes;
  OutputSpec output;

  // Grid size: product of axis point counts x repeat.
  [[nodiscard]] std::size_t cell_count() const;

  // Expand the grid into concrete RunPoints (pure; label = axis labels
  // joined with spaces, or the scenario name for an axis-less plan).
  [[nodiscard]] std::vector<RunPoint> expand(const ScenarioContext& context) const;

  // JSON round trip.  to_json/from_json are exact: every double uses the
  // shortest representation that parses back bit-identically.
  [[nodiscard]] trace::JsonValue to_json() const;
  [[nodiscard]] std::string to_json_text() const { return to_json().dump(2) + "\n"; }
  [[nodiscard]] static ExperimentPlan from_json(const trace::JsonValue& json);

  friend bool operator==(const ExperimentPlan&, const ExperimentPlan&) = default;
};

// Load a plan file's JSON with "include" composition resolved.  A plan file
// may carry `"include": "base_plan.json"` (resolved relative to the
// including file's directory, includes may nest): the included file is
// loaded first and the including file's other keys override it —
//   - "base" merges key-by-key (the fragment's workload fields win, the
//     rest of the included base survives);
//   - "axes" override by identity (an axis's "key", or "name" for tuples
//     axes): a fragment axis replaces the included axis with the same
//     identity and is appended otherwise.  Two fragment axes targeting the
//     same identity is a conflict error naming the identity;
//   - every other top-level key replaces the included value wholesale.
// Include cycles are detected and reported as the full chain
// ("plan include cycle: a.json -> b.json -> a.json").  Returns the merged
// JSON with no "include" key remaining.
[[nodiscard]] trace::JsonValue load_plan_json(const std::string& path);

// Load a plan from a JSON file ("include" composition resolved as above).
// Throws std::runtime_error on I/O or parse/validation errors.
[[nodiscard]] ExperimentPlan load_plan_file(const std::string& path);

// Render the declarative table: one row per run, columns from the metric
// catalog, then the hop column groups, then the static notes.  Throws
// std::invalid_argument on an unknown metric name.
void render_plan_output(const OutputSpec& spec, const std::vector<RunPoint>& runs,
                        const std::vector<simnet::ExperimentResult>& results,
                        ScenarioOutput& output);

// A contiguous [begin, end) slice of a grid's GLOBAL cell order: what
// `--shard`/`--cells` select, what execute_scenario runs, and what the
// sweep orchestrator hands each worker.
struct CellRange {
  std::size_t begin = 0;
  std::size_t end = 0;  // exclusive

  [[nodiscard]] std::size_t size() const { return end - begin; }
  friend bool operator==(const CellRange&, const CellRange&) = default;
};

// The slice of `total` grid cells owned by shard `index` of `count`:
// balanced block partition, deterministic, exhaustive.  Throws
// std::invalid_argument unless 0 <= index < count.
[[nodiscard]] CellRange shard_range(int index, int count, std::size_t total);

}  // namespace sss::scenario
