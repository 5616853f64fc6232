#include "scenario/runner.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/phase_timer.hpp"
#include "obs/timeline.hpp"
#include "scenario/executor.hpp"
#include "scenario/overrides.hpp"
#include "scenario/registry.hpp"
#include "trace/atomic_io.hpp"
#include "trace/csv.hpp"
#include "trace/json.hpp"
#include "trace/parse.hpp"
#include "trace/table.hpp"

namespace sss::scenario {

namespace {

using trace::parse_double;
using trace::parse_int;
using trace::parse_uint64;

void print_banner(const ScenarioSpec& spec) {
  std::printf("================================================================\n");
  std::printf("sss scenario     | %s\n", spec.title.c_str());
  std::printf("paper reference  | %s\n", spec.paper_ref.c_str());
  std::printf("================================================================\n");
}

// Returns the written path so the truncate fault can corrupt it afterwards.
std::optional<std::string> write_csv(const ScenarioSpec& spec,
                                     const ScenarioOutput& output,
                                     const std::string& dir,
                                     std::optional<CellRange> cells, std::size_t grid) {
  if (output.header.empty()) return std::nullopt;
  const std::string path =
      dir + "/" + (cells.has_value() ? part_stem(spec.name, *cells, grid) : spec.name) +
      ".csv";
  try {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best effort; open reports failure
    trace::write_csv_file(path, output.header, output.rows);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "CSV export disabled: %s\n", e.what());
    return std::nullopt;
  }
  return path;
}

void validate_output(const ScenarioSpec& spec, const ScenarioOutput& output) {
  if (!output.rows.empty() && output.header.empty()) {
    throw std::logic_error("scenario '" + spec.name + "' produced rows without a header");
  }
  for (const auto& row : output.rows) {
    if (row.size() != output.header.size()) {
      throw std::logic_error("scenario '" + spec.name + "' produced a ragged row");
    }
  }
}

using trace::read_text_file;
using trace::write_text_file_atomic;

// One-shot fault arm: SSS_FAULT_INJECTION names a file whose existence
// arms the injected fault; firing consumes it.  unlink(2) succeeds for
// exactly one caller, so even racing speculative attempts fire it once.
bool consume_fault_arm() {
  const char* arm = std::getenv("SSS_FAULT_INJECTION");
  if (arm == nullptr || *arm == '\0') return false;
  return ::unlink(arm) == 0;
}

// The truncate fault: chop the tail off a finished artifact, leaving the
// kind of mid-row cut a non-atomic writer would produce when killed.
void truncate_file_for_fault(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return;
  if (::truncate(path.c_str(), static_cast<off_t>(size * 2 / 3)) == 0) {
    std::fprintf(stderr, "fault-injection: truncated %s\n", path.c_str());
  }
}

// Per-cell metrics for the manifest: deterministic fields from the results,
// wall times from the executor, GLOBAL indices via `offset` (slice begin).
void fill_manifest(obs::RunManifest& manifest, const ScenarioSpec& spec,
                   const ScenarioContext& context, std::size_t total_cells,
                   std::size_t offset, const std::vector<RunPoint>& runs,
                   const std::vector<simnet::ExperimentResult>& results,
                   const std::vector<double>& wall_ms) {
  manifest = obs::RunManifest{};
  manifest.scenario = spec.name;
  manifest.scale = context.scale;
  manifest.seed = context.seed;
  manifest.threads = context.threads;
  manifest.total_cells = total_cells;
  manifest.cells.resize(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    obs::CellMetrics& cell = manifest.cells[i];
    cell.index = offset + i;
    cell.label = runs[i].label;
    cell.events_processed = results[i].events_processed;
    cell.queue_high_water = results[i].queue_high_water;
    cell.arena_reserved_bytes = results[i].arena_reserved_bytes;
    cell.sim_duration_s = results[i].sim_duration_s;
    cell.wall_ms = i < wall_ms.size() ? wall_ms[i] : 0.0;
  }
}

// Only a cell that runs can be recorded; a slice without it would write an
// empty timeline.  The reason `cell` cannot be recorded from the cells
// `range` of a `total`-cell grid, or nullopt when it can.
std::optional<std::string> timeline_cell_refusal(std::size_t cell, CellRange range,
                                                 std::size_t total) {
  if (total == 0 || (cell >= range.begin && cell < range.end)) return std::nullopt;
  return "timeline cell " + std::to_string(cell) + " is outside the cells that run [" +
         std::to_string(range.begin) + ", " + std::to_string(range.end) + ") of " +
         std::to_string(total);
}

// A slice's rows must each depend on one run only.  The reason `spec`
// cannot run the slice `cells`, or nullopt when it can (or runs no slice).
std::optional<std::string> reducing_slice_refusal(const ScenarioSpec& spec,
                                                  const std::optional<CellRange>& cells) {
  if (!cells.has_value() || spec.has_declarative_output()) return std::nullopt;
  return "reduces across runs (no declarative output spec), so its rows cannot be "
         "computed per slice";
}

// A slice names cells of the grid it runs.  The reason `range` is not a
// slice of a `total`-cell grid, or nullopt when it is.
std::optional<std::string> cell_range_refusal(CellRange range, std::size_t total) {
  if (range.begin <= range.end && range.end <= total) return std::nullopt;
  return "cells [" + std::to_string(range.begin) + ", " + std::to_string(range.end) +
         ") is not a range inside this grid (" + std::to_string(total) + " cells)";
}

}  // namespace

CellRange ShardSpec::resolve(std::size_t total) const {
  return cells.has_value() ? *cells : shard_range(index, count, total);
}

std::string part_stem(const std::string& scenario, CellRange cells, std::size_t total) {
  return scenario + ".cells" + std::to_string(cells.begin) + "-" +
         std::to_string(cells.end) + "of" + std::to_string(total);
}

std::optional<FaultSpec> parse_fault_spec(std::string_view text) {
  const std::size_t at = text.find("@cell=");
  if (at == std::string_view::npos) return std::nullopt;
  const std::string_view kind = text.substr(0, at);
  FaultSpec fault;
  if (kind == "crash") {
    fault.kind = FaultSpec::Kind::kCrash;
  } else if (kind == "hang") {
    fault.kind = FaultSpec::Kind::kHang;
  } else if (kind == "truncate") {
    fault.kind = FaultSpec::Kind::kTruncate;
  } else {
    return std::nullopt;
  }
  const auto cell = parse_uint64(text.substr(at + 6));
  if (!cell.has_value()) return std::nullopt;
  fault.cell = static_cast<std::size_t>(*cell);
  return fault;
}

ScenarioOutput execute_scenario(const ScenarioSpec& spec, const ScenarioContext& context,
                                obs::RunManifest* manifest, std::optional<CellRange> cells) {
  if (const auto refusal = reducing_slice_refusal(spec, cells)) {
    throw std::invalid_argument(*refusal);
  }
  // Every cell is checked before any of them runs.  A scenario with no grid
  // checks its --param overrides on one default workload instead, so a bad
  // key or value fails there as it does on a grid.
  const bool grid = spec.plan != nullptr;
  std::vector<RunPoint> runs = grid ? spec.plan->expand(context) : std::vector<RunPoint>(1);
  apply_param_overrides(runs, context.param_overrides);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    try {
      runs[i].config.validate();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(
          (grid ? "cell " + std::to_string(i) + " (" + runs[i].label + ")" : "--param") +
          ": " + e.what());
    }
  }
  if (!grid) runs.clear();
  const std::size_t total = runs.size();
  const CellRange range = cells.value_or(CellRange{0, total});
  if (const auto refusal = cell_range_refusal(range, total)) {
    throw std::invalid_argument(*refusal);
  }
  if (context.timeline != nullptr) {
    if (const auto refusal = timeline_cell_refusal(context.timeline_cell, range, total)) {
      throw std::invalid_argument(*refusal);
    }
  }
  runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(range.end), runs.end());
  runs.erase(runs.begin(), runs.begin() + static_cast<std::ptrdiff_t>(range.begin));

  SweepOptions sweep;
  sweep.threads = context.threads;
  sweep.base_seed = context.seed;
  SweepExecutor executor(sweep);
  executor.timeline = context.timeline;
  executor.timeline_index = context.timeline_cell;
  executor.on_progress = context.progress;
  executor.on_run_start = context.on_cell_start;
  const std::vector<simnet::ExperimentResult> results = executor.execute(runs, range.begin);
  if (manifest != nullptr) {
    fill_manifest(*manifest, spec, context, total, range.begin, runs, results,
                  executor.last_cell_wall_ms());
  }

  ScenarioOutput output;
  if (spec.has_declarative_output()) {
    render_plan_output(spec.plan->output, runs, results, output);
    if (spec.annotate && !cells.has_value()) spec.annotate(context, runs, results, output);
  } else if (spec.analyze) {
    spec.analyze(context, runs, results, output);
  } else {
    throw std::logic_error("scenario '" + spec.name +
                           "' has neither declarative output nor analyze");
  }
  validate_output(spec, output);
  return output;
}

int run_scenario(const ScenarioSpec& spec, const RunnerOptions& options) {
  // Observability attachments live here so the library entries stay pure:
  // the recorder/manifest are locals, wired into the context by pointer.
  obs::TimelineRecorder recorder;
  obs::RunManifest manifest;
  const bool want_manifest = options.metrics_path.has_value() || options.cost_report;
  ScenarioContext context = options.context;
  if (options.timeline_path.has_value()) {
    context.timeline = &recorder;
    context.timeline_cell = options.timeline_cell;
  }
  // Live progress: stderr only, suppressed by --quiet and for non-TTY
  // stderr (logs/CI capture the final table, not a \r ticker).
  if (!options.quiet && isatty(fileno(stderr)) != 0) {
    const auto sweep_start = std::chrono::steady_clock::now();
    context.progress = [sweep_start](std::size_t done, std::size_t total) {
      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
              .count();
      const double rate = elapsed_s > 0.0 ? static_cast<double>(done) / elapsed_s : 0.0;
      const double eta_s =
          rate > 0.0 ? static_cast<double>(total - done) / rate : 0.0;
      std::fprintf(stderr, "\r%zu/%zu cells, %.1f cells/s, ETA %.0fs   %s", done,
                   total, rate, eta_s, done == total ? "\n" : "");
      std::fflush(stderr);
    };
  }
  // crash/hang faults fire just before the target cell executes; the
  // truncate fault corrupts the CSV after export (below).  All of them
  // no-op unless the SSS_FAULT_INJECTION arm file still exists.
  if (options.inject_fault.has_value() &&
      options.inject_fault->kind != FaultSpec::Kind::kTruncate) {
    const FaultSpec fault = *options.inject_fault;
    context.on_cell_start = [fault](std::size_t global_cell) {
      if (global_cell != fault.cell || !consume_fault_arm()) return;
      if (fault.kind == FaultSpec::Kind::kCrash) {
        std::fprintf(stderr, "fault-injection: SIGKILL at cell %zu\n", global_cell);
        std::raise(SIGKILL);
      }
      std::fprintf(stderr, "fault-injection: hanging at cell %zu\n", global_cell);
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
    };
  }

  // --shard/--cells resolve to one slice here; the banner, the execution
  // and the truncate fault all use it.
  const std::size_t grid = spec.plan != nullptr ? spec.plan->cell_count() : 0;
  std::optional<CellRange> cells;
  ScenarioOutput output;
  try {
    if (options.shard.has_value()) cells = options.shard->resolve(grid);
    // Slice misuse is refused before any output, like --cells with --all.
    const CellRange range = cells.value_or(CellRange{0, grid});
    std::optional<std::string> refusal = reducing_slice_refusal(spec, cells);
    if (!refusal.has_value()) refusal = cell_range_refusal(range, grid);
    if (!refusal.has_value() && options.timeline_path.has_value()) {
      refusal = timeline_cell_refusal(options.timeline_cell, range, grid);
    }
    if (refusal.has_value()) {
      std::fprintf(stderr, "scenario '%s': %s\n", spec.name.c_str(), refusal->c_str());
      return 2;
    }
    if (!options.quiet) {
      print_banner(spec);
      if (cells.has_value()) {
        std::printf("cells [%zu, %zu) of %zu\n", range.begin, range.end, grid);
      }
      if (range.size() > 0) {
        SweepOptions sweep;
        sweep.threads = options.context.threads;
        const int threads = SweepExecutor(sweep).effective_threads(range.size());
        std::printf(
            "executing %zu simulation runs on %d thread%s (scale %.2f, seed %llu)\n\n",
            range.size(), threads, threads == 1 ? "" : "s", options.context.scale,
            static_cast<unsigned long long>(options.context.seed));
      }
    }
    if (options.phase_timers) {
      obs::reset_phase_totals();
      obs::set_phase_timing_enabled(true);
    }
    output = execute_scenario(spec, context, want_manifest ? &manifest : nullptr, cells);
  } catch (const std::exception& e) {
    if (options.phase_timers) obs::set_phase_timing_enabled(false);
    std::fprintf(stderr, "scenario '%s' failed: %s\n", spec.name.c_str(), e.what());
    return 1;
  }
  if (options.phase_timers) obs::set_phase_timing_enabled(false);

  if (!output.header.empty()) {
    trace::ConsoleTable table(output.header);
    for (const auto& row : output.rows) table.add_row(row);
    std::printf("%s\n", table.render().c_str());
  }
  for (const auto& note : output.notes) std::printf("%s\n", note.c_str());
  if (options.csv_dir.has_value()) {
    const std::optional<std::string> csv_path =
        write_csv(spec, output, *options.csv_dir, cells, grid);
    if (csv_path.has_value() && options.inject_fault.has_value() &&
        options.inject_fault->kind == FaultSpec::Kind::kTruncate) {
      // Only the worker whose slice contains the target cell corrupts its
      // artifact, mirroring how crash/hang pick their victim.
      const CellRange range = cells.value_or(CellRange{0, grid});
      const std::size_t cell = options.inject_fault->cell;
      if (cell >= range.begin && cell < range.end && consume_fault_arm()) {
        truncate_file_for_fault(*csv_path);
      }
    }
  }

  try {
    if (options.timeline_path.has_value()) {
      write_text_file_atomic(*options.timeline_path, recorder.to_chrome_json_text());
      if (!options.quiet) {
        std::printf("timeline: %zu events on %zu tracks -> %s\n", recorder.event_count(),
                    recorder.track_count(), options.timeline_path->c_str());
      }
    }
    if (options.metrics_path.has_value()) {
      write_text_file_atomic(*options.metrics_path, manifest.to_json_text());
      if (!options.quiet) {
        std::printf("metrics: %zu cells -> %s\n", manifest.cells.size(),
                    options.metrics_path->c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "observability export failed: %s\n", e.what());
    return 1;
  }
  if (options.cost_report) {
    trace::ConsoleTable table(obs::cost_report_header());
    for (const auto& row : obs::cost_report_rows(manifest, 10)) table.add_row(row);
    std::printf("cost report (slowest cells first):\n%s\n", table.render().c_str());
  }
  if (options.phase_timers) {
    const std::string report = obs::phase_report();
    if (!report.empty()) std::fputs(report.c_str(), stderr);
  }
  return 0;
}

ScenarioSpec spec_from_plan_file(const std::string& path) {
  register_builtin_scenarios();
  ExperimentPlan plan = load_plan_file(path);

  ScenarioSpec spec;
  const ScenarioSpec* registered = ScenarioRegistry::global().find(plan.scenario);
  if (registered != nullptr) {
    spec = *registered;  // metadata + annotate/analyze hooks
  } else {
    spec.name = plan.scenario.empty() ? std::string("plan") : plan.scenario;
    spec.title = "plan file: " + path;
    spec.paper_ref = "user-supplied ExperimentPlan";
    spec.description = "loaded from " + path;
    spec.tags = {"plan-file"};
  }
  const bool declarative = !plan.output.columns.empty();
  spec.plan = std::make_shared<const ExperimentPlan>(std::move(plan));
  if (declarative) {
    // The plan's output spec renders the table; a registered aggregate
    // analyze hook (if any) is superseded.
    spec.analyze = nullptr;
  } else {
    spec.annotate = nullptr;
    if (!spec.analyze) {
      throw std::invalid_argument(
          "plan file " + path + " has no output columns and scenario '" + spec.name +
          "' has no registered analyze hook — nothing would render the results");
    }
  }
  return spec;
}

Part read_part(const std::string& path) {
  // The name: <scenario>.cells<A>-<B>of<N>.csv (part_stem) with A <= B <= N.
  std::string_view base = std::string_view(path).substr(path.find_last_of('/') + 1);
  std::size_t dot = std::string_view::npos;
  if (base.ends_with(".csv")) {
    base.remove_suffix(4);
    dot = base.find_last_of('.');
  }
  std::optional<std::uint64_t> begin, end, total;
  if (dot != std::string_view::npos && dot > 0 && base.substr(dot + 1).starts_with("cells")) {
    const std::string_view range = base.substr(dot + 6);
    const std::size_t dash = range.find('-');
    const std::size_t of = range.find("of");
    if (dash < of && of != std::string_view::npos) {
      begin = parse_uint64(range.substr(0, dash));
      end = parse_uint64(range.substr(dash + 1, of - dash - 1));
      total = parse_uint64(range.substr(of + 2));
    }
  }
  const auto refuse = [&](const std::string& what) {
    throw std::invalid_argument(path + " " + what);
  };
  if (!begin.has_value() || !end.has_value() || !total.has_value() || *begin > *end ||
      *end > *total) {
    refuse("is not a part name <scenario>.cells<A>-<B>of<N>.csv with A <= B <= N "
           "(re-run the slice to write one)");
  }
  Part part;
  part.path = path;
  part.scenario = std::string(base.substr(0, dot));
  part.cells = {static_cast<std::size_t>(*begin), static_cast<std::size_t>(*end)};
  part.total = static_cast<std::size_t>(*total);

  // The contents: a header and B - A rows as wide as it.
  try {
    part.table = trace::read_csv_file(path);
  } catch (const std::runtime_error&) {
    refuse("cannot be read");
  }
  if (part.table.header.empty()) refuse("has no header");
  const std::size_t rows = part.table.rows.size();
  if (rows != part.cells.size()) {
    refuse("has " + std::to_string(rows) + " rows for cells [" +
           std::to_string(part.cells.begin) + ", " + std::to_string(part.cells.end) +
           ") — expected " + std::to_string(part.cells.size()));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t width = part.table.rows[r].size();
    if (width != part.table.header.size()) {
      refuse("row " + std::to_string(r + 1) + " has " + std::to_string(width) +
             " fields, expected " + std::to_string(part.table.header.size()) +
             " (truncated?)");
    }
  }
  return part;
}

MergedParts merge_parts(std::vector<Part> parts) {
  if (parts.empty()) throw std::invalid_argument("no parts to merge");
  // In range order, each part must begin at or after the cell where the
  // previous one ended: a later begin leaves a gap, an earlier one overlaps.
  std::sort(parts.begin(), parts.end(), [](const Part& a, const Part& b) {
    return std::pair(a.cells.begin, a.cells.end) < std::pair(b.cells.begin, b.cells.end);
  });
  const Part& first = parts.front();
  MergedParts merged;
  merged.total = first.total;
  merged.table.header = first.table.header;
  std::size_t covered = 0;  // cells [0, covered) are accounted for
  for (Part& part : parts) {
    if (part.scenario != first.scenario) {
      throw std::invalid_argument("scenario names disagree: '" + first.scenario + "' vs '" +
                                  part.scenario + "'");
    }
    if (part.total != first.total) {
      throw std::invalid_argument("grid sizes disagree: of" + std::to_string(first.total) +
                                  " vs of" + std::to_string(part.total));
    }
    if (part.table.header != merged.table.header) {
      throw std::invalid_argument(part.path + " has a different header than " + first.path);
    }
    if (part.cells.begin < covered) {
      throw std::invalid_argument("overlapping cell ranges at cell " +
                                  std::to_string(part.cells.begin));
    }
    if (part.cells.begin > covered) merged.missing.push_back({covered, part.cells.begin});
    covered = part.cells.end;
    merged.table.rows.insert(merged.table.rows.end(),
                             std::make_move_iterator(part.table.rows.begin()),
                             std::make_move_iterator(part.table.rows.end()));
  }
  if (covered < first.total) merged.missing.push_back({covered, first.total});
  return merged;
}

int merge_csv_files(const std::string& out_path, const std::vector<std::string>& inputs) {
  try {
    std::vector<Part> parts;
    parts.reserve(inputs.size());
    for (const std::string& path : inputs) parts.push_back(read_part(path));
    const MergedParts merged = merge_parts(std::move(parts));
    if (!merged.missing.empty()) {
      const CellRange gap = merged.missing.front();
      throw std::invalid_argument(
          "missing cells [" + std::to_string(gap.begin) + ", " + std::to_string(gap.end) +
          ")" + (gap.end == merged.total ? " of " + std::to_string(merged.total) : ""));
    }
    trace::write_csv_file(out_path, merged.table.header, merged.table.rows);
    std::printf("merged %zu rows from %zu shard file%s into %s\n", merged.table.rows.size(),
                inputs.size(), inputs.size() == 1 ? "" : "s", out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--merge failed: %s\n", e.what());
    return 1;
  }
}

int merge_manifest_files(const std::string& out_path,
                         const std::vector<std::string>& inputs) {
  try {
    std::vector<obs::RunManifest> parts;
    parts.reserve(inputs.size());
    for (const std::string& path : inputs) {
      parts.push_back(obs::RunManifest::from_json_text(read_text_file(path)));
    }
    const obs::RunManifest merged = obs::merge_manifests(parts);
    write_text_file_atomic(out_path, merged.to_json_text());
    std::printf("merged %zu cells from %zu shard manifest%s into %s\n",
                merged.cells.size(), inputs.size(), inputs.size() == 1 ? "" : "s",
                out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--merge failed: %s\n", e.what());
    return 1;
  }
}

namespace {

// `--cost-report metrics.json` without a run: load a saved manifest and rank.
int standalone_cost_report(const std::string& metrics_path) {
  try {
    const obs::RunManifest manifest =
        obs::RunManifest::from_json_text(read_text_file(metrics_path));
    std::printf("scenario %s (scale %g, seed %llu): %zu of %zu cells\n",
                manifest.scenario.c_str(), manifest.scale,
                static_cast<unsigned long long>(manifest.seed), manifest.cells.size(),
                manifest.total_cells);
    trace::ConsoleTable table(obs::cost_report_header());
    for (const auto& row : obs::cost_report_rows(manifest, 0)) table.add_row(row);
    std::printf("%s\n", table.render().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--cost-report %s: %s\n", metrics_path.c_str(), e.what());
    return 1;
  }
}

// CI smoke: re-parse a timeline + manifest with the in-repo JSON parser and
// assert the shape downstream tools rely on.
int check_obs_files(const std::string& timeline_path, const std::string& metrics_path) {
  try {
    const trace::JsonValue doc = trace::JsonValue::parse(read_text_file(timeline_path));
    if (doc.at("displayTimeUnit").as_string() != "ms") {
      throw std::runtime_error("timeline displayTimeUnit is not \"ms\"");
    }
    const trace::JsonValue::Array& events = doc.at("traceEvents").as_array();
    if (events.empty()) throw std::runtime_error("timeline has no traceEvents");
    for (const trace::JsonValue& event : events) {
      // Every event carries the keys Perfetto keys on ("E" span-ends have
      // no name by design — they close the most recent "B" on the track).
      const std::string& ph = event.at("ph").as_string();
      (void)event.at("pid").as_double();
      (void)event.at("tid").as_double();
      if (ph != "E") (void)event.at("name").as_string();
    }
    const obs::RunManifest manifest =
        obs::RunManifest::from_json_text(read_text_file(metrics_path));
    if (manifest.cells.empty()) throw std::runtime_error("manifest has no cells");
    for (const obs::CellMetrics& cell : manifest.cells) {
      if (cell.index >= manifest.total_cells) {
        throw std::runtime_error("cell index " + std::to_string(cell.index) +
                                 " out of range");
      }
    }
    std::printf("check-obs OK: %zu trace events, %zu manifest cells (scenario %s)\n",
                events.size(), manifest.cells.size(), manifest.scenario.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--check-obs failed: %s\n", e.what());
    return 1;
  }
}

void print_list(const std::string& tag_filter) {
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  trace::ConsoleTable table({"scenario", "tags", "description"});
  std::size_t shown = 0;
  for (const ScenarioSpec* spec : registry.all()) {
    if (!tag_filter.empty() && !spec->has_tag(tag_filter)) continue;
    std::string tags;
    for (const auto& tag : spec->tags) {
      if (!tags.empty()) tags += ",";
      tags += tag;
    }
    table.add_row({spec->name, tags, spec->description});
    ++shown;
  }
  std::printf("%s\n%zu scenario%s registered\n", table.render().c_str(), shown,
              shown == 1 ? "" : "s");
}

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s --list [--tag TAG]\n"
               "       %s --run NAME[,NAME...] [options]\n"
               "       %s --all [--tag TAG] [options]\n"
               "       %s --plan FILE.json [options]\n"
               "       %s --dump-plan NAME\n"
               "       %s --merge OUT.csv PART.csv [PART.csv...]\n"
               "       %s --merge OUT.json SHARD.json [...]   (metrics manifests)\n"
               "       %s --cost-report METRICS.json          (report a saved manifest)\n"
               "       %s --check-obs TIMELINE.json METRICS.json\n"
               "options:\n"
               "  --threads N   sweep worker threads (0 = hardware, 1 = serial)\n"
               "  --scale S     duration scale in (0, 1]\n"
               "  --seed K      base seed for per-run RNG streams\n"
               "  --csv-dir D   also write <D>/<scenario>.csv, or for the slice [A, B)\n"
               "                of an M-cell grid <D>/<scenario>.cells<A>-<B>of<M>.csv\n"
               "  --param K=V   override a workload knob on every run (repeatable;\n"
               "                e.g. concurrency=8, duration_s=2, link_gbps=10,\n"
               "                hop1_gbps=5 — see scenario/overrides.hpp)\n"
               "  --shard I/N   run only grid cells [I*M/N, (I+1)*M/N); per-cell RNG\n"
               "                streams follow the GLOBAL cell index, so --merge of\n"
               "                all shards is bit-identical to the unsharded run\n"
               "                (needs a scenario with a declarative output spec)\n"
               "  --cells A:B   run only the explicit GLOBAL cell range [A, B)\n"
               "                (same determinism contract; used by the sweep\n"
               "                orchestrator's cost-aware partitions)\n"
               "  --inject-fault crash|hang|truncate@cell=K\n"
               "                deliberately fail at GLOBAL cell K; refused unless\n"
               "                SSS_FAULT_INJECTION names an arm file (test/CI only)\n"
               "observability:\n"
               "  --timeline F        record a Chrome trace-event timeline of one grid\n"
               "                      cell to F (open in Perfetto / chrome://tracing)\n"
               "  --timeline-cell K   which GLOBAL grid cell to record (default 0; must\n"
               "                      lie inside --shard/--cells)\n"
               "  --metrics-out F     write the per-cell runtime manifest (JSON) to F\n"
               "  --cost-report       print the slowest cells after the run\n"
               "  --phase-timers      host-time phase accounting report on stderr\n"
               "  --quiet             suppress banner and live progress\n"
               "--merge: every input must be a part <scenario>.cells<A>-<B>of<M>.csv of\n"
               "  one scenario and one M, hold B-A rows, and the parts must tile [0, M)\n"
               "  without gap or overlap\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
}

// Argument error: usage on stderr, non-zero exit.
int usage(const char* argv0) {
  print_usage(stderr, argv0);
  return 2;
}

// "I/N" with 0 <= I < N.  Each rejection names the actual problem — a bad
// shard argument on one host of a fleet must fail fast and legibly, not
// run the wrong slice.
std::optional<ShardSpec> parse_shard(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    std::fprintf(stderr, "--shard '%.*s': expected I/N (e.g. 0/4)\n",
                 static_cast<int>(text.size()), text.data());
    return std::nullopt;
  }
  const auto index = parse_int(text.substr(0, slash));
  const auto count = parse_int(text.substr(slash + 1));
  if (!index.has_value() || !count.has_value()) {
    std::fprintf(stderr, "--shard '%.*s': I and N must be decimal integers\n",
                 static_cast<int>(text.size()), text.data());
    return std::nullopt;
  }
  if (*count < 1) {
    std::fprintf(stderr, "--shard '%.*s': N must be >= 1\n",
                 static_cast<int>(text.size()), text.data());
    return std::nullopt;
  }
  if (*index < 0 || *index >= *count) {
    std::fprintf(stderr, "--shard '%.*s': need 0 <= I < N\n",
                 static_cast<int>(text.size()), text.data());
    return std::nullopt;
  }
  ShardSpec shard;
  shard.index = *index;
  shard.count = *count;
  return shard;
}

// "A:B" with A < B — an explicit global cell range.
std::optional<ShardSpec> parse_cells(std::string_view text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) {
    std::fprintf(stderr, "--cells '%.*s': expected BEGIN:END (e.g. 4:9)\n",
                 static_cast<int>(text.size()), text.data());
    return std::nullopt;
  }
  const auto begin = parse_uint64(text.substr(0, colon));
  const auto end = parse_uint64(text.substr(colon + 1));
  if (!begin.has_value() || !end.has_value() || *begin >= *end) {
    std::fprintf(stderr,
                 "--cells '%.*s': BEGIN and END must be integers with BEGIN < END\n",
                 static_cast<int>(text.size()), text.data());
    return std::nullopt;
  }
  ShardSpec shard;
  shard.cells = CellRange{static_cast<std::size_t>(*begin), static_cast<std::size_t>(*end)};
  return shard;
}

}  // namespace

int main_from_args(int argc, char** argv) {
  register_builtin_scenarios();

  bool list = false;
  bool all = false;
  std::string names_arg;
  std::string plan_path;
  std::string dump_name;
  std::string tag;
  std::string cost_report_path;
  RunnerOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--run") {
      const char* v = next_value("--run");
      if (v == nullptr) return usage(argv[0]);
      names_arg = v;
    } else if (arg == "--plan") {
      const char* v = next_value("--plan");
      if (v == nullptr) return usage(argv[0]);
      plan_path = v;
    } else if (arg == "--dump-plan") {
      const char* v = next_value("--dump-plan");
      if (v == nullptr) return usage(argv[0]);
      dump_name = v;
    } else if (arg == "--merge") {
      // Consumes the rest of the argument list: OUT SHARD [SHARD...].
      // The output suffix picks the format: .json merges metrics
      // manifests, anything else merges scenario CSVs.
      if (i + 2 >= argc) {
        std::fprintf(stderr, "--merge requires OUT and at least one shard file\n");
        return usage(argv[0]);
      }
      const std::string out_path = argv[++i];
      std::vector<std::string> inputs;
      while (++i < argc) inputs.emplace_back(argv[i]);
      return out_path.ends_with(".json") ? merge_manifest_files(out_path, inputs)
                                         : merge_csv_files(out_path, inputs);
    } else if (arg == "--timeline") {
      const char* v = next_value("--timeline");
      if (v == nullptr) return usage(argv[0]);
      options.timeline_path = std::string(v);
    } else if (arg == "--timeline-cell") {
      const char* v = next_value("--timeline-cell");
      const auto parsed = v ? parse_uint64(v) : std::nullopt;
      if (!parsed.has_value()) return usage(argv[0]);
      options.timeline_cell = static_cast<std::size_t>(*parsed);
    } else if (arg == "--metrics-out") {
      const char* v = next_value("--metrics-out");
      if (v == nullptr) return usage(argv[0]);
      options.metrics_path = std::string(v);
    } else if (arg == "--cost-report") {
      // With a following path: standalone report over a saved manifest.
      // Bare: print the report after this invocation's run.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        cost_report_path = argv[++i];
      } else {
        options.cost_report = true;
      }
    } else if (arg == "--phase-timers") {
      options.phase_timers = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--check-obs") {
      if (i + 2 >= argc) {
        std::fprintf(stderr, "--check-obs requires TIMELINE.json METRICS.json\n");
        return usage(argv[0]);
      }
      const std::string timeline_path = argv[++i];
      const std::string metrics_path = argv[++i];
      return check_obs_files(timeline_path, metrics_path);
    } else if (arg == "--shard") {
      if (options.shard.has_value() && options.shard->cells.has_value()) {
        std::fprintf(stderr, "--shard and --cells are mutually exclusive\n");
        return 2;
      }
      const char* v = next_value("--shard");
      const auto parsed = v ? parse_shard(v) : std::nullopt;
      if (!parsed.has_value()) return 2;  // parse_shard printed the reason
      options.shard = *parsed;
    } else if (arg == "--cells") {
      if (options.shard.has_value() && !options.shard->cells.has_value()) {
        std::fprintf(stderr, "--shard and --cells are mutually exclusive\n");
        return 2;
      }
      const char* v = next_value("--cells");
      const auto parsed = v ? parse_cells(v) : std::nullopt;
      if (!parsed.has_value()) return 2;  // parse_cells printed the reason
      options.shard = *parsed;
    } else if (arg == "--inject-fault") {
      const char* v = next_value("--inject-fault");
      const auto parsed = v ? parse_fault_spec(v) : std::nullopt;
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "--inject-fault requires crash|hang|truncate@cell=K\n");
        return 2;
      }
      const char* arm = std::getenv("SSS_FAULT_INJECTION");
      if (arm == nullptr || *arm == '\0') {
        std::fprintf(stderr,
                     "--inject-fault is a test-harness flag; set "
                     "SSS_FAULT_INJECTION=<arm-file> to enable it\n");
        return 2;
      }
      options.inject_fault = *parsed;
    } else if (arg == "--tag") {
      const char* v = next_value("--tag");
      if (v == nullptr) return usage(argv[0]);
      tag = v;
    } else if (arg == "--threads") {
      const char* v = next_value("--threads");
      const auto parsed = v ? parse_int(v) : std::nullopt;
      if (!parsed.has_value() || *parsed < 0) return usage(argv[0]);
      options.context.threads = *parsed;
    } else if (arg == "--scale") {
      const char* v = next_value("--scale");
      const auto parsed = v ? parse_double(v) : std::nullopt;
      if (!parsed.has_value() || !(*parsed > 0.0) || *parsed > 1.0) return usage(argv[0]);
      options.context.scale = *parsed;
    } else if (arg == "--seed") {
      const char* v = next_value("--seed");
      const auto parsed = v ? parse_uint64(v) : std::nullopt;
      if (!parsed.has_value()) return usage(argv[0]);
      options.context.seed = *parsed;
    } else if (arg == "--csv-dir") {
      const char* v = next_value("--csv-dir");
      if (v == nullptr) return usage(argv[0]);
      options.csv_dir = std::string(v);
    } else if (arg == "--param") {
      const char* v = next_value("--param");
      const std::size_t eq = v != nullptr ? std::string_view(v).find('=')
                                          : std::string_view::npos;
      if (v == nullptr || eq == std::string_view::npos || eq == 0) {
        std::fprintf(stderr, "--param requires key=value\n");
        return usage(argv[0]);
      }
      options.context.param_overrides.emplace_back(v);
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return usage(argv[0]);
    }
  }

  if (!cost_report_path.empty()) {
    return standalone_cost_report(cost_report_path);
  }
  if (list) {
    print_list(tag);
    return 0;
  }
  if (!dump_name.empty()) {
    const ScenarioSpec* spec = ScenarioRegistry::global().find(dump_name);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s' (try --list)\n", dump_name.c_str());
      return 2;
    }
    if (spec->plan == nullptr) {
      std::fprintf(stderr,
                   "scenario '%s' is analyze-only (no experiment grid to dump)\n",
                   dump_name.c_str());
      return 1;
    }
    std::fputs(spec->plan->to_json_text().c_str(), stdout);
    return 0;
  }
  if (!plan_path.empty()) {
    try {
      const ScenarioSpec spec = spec_from_plan_file(plan_path);
      return run_scenario(spec, options);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--plan %s: %s\n", plan_path.c_str(), e.what());
      return 1;
    }
  }
  // A slice names cells of ONE grid.
  const auto refuse_slice = [&options] {
    std::fprintf(stderr, "%s works with exactly one scenario at a time\n",
                 options.shard->cells.has_value() ? "--cells" : "--shard");
    return 2;
  };
  if (all) {
    if (options.shard.has_value()) return refuse_slice();
    int status = 0;
    for (const ScenarioSpec* spec : ScenarioRegistry::global().all()) {
      if (!tag.empty() && !spec->has_tag(tag)) continue;
      status |= run_scenario(*spec, options);
      std::printf("\n");
    }
    return status;
  }
  if (!names_arg.empty()) {
    const std::vector<std::string> names = split_param_list(names_arg);
    if (names.empty()) return usage(argv[0]);
    if (options.shard.has_value() && names.size() > 1) return refuse_slice();
    int status = 0;
    for (std::size_t n = 0; n < names.size(); ++n) {
      const ScenarioSpec* spec = ScenarioRegistry::global().find(names[n]);
      if (spec == nullptr) {
        std::fprintf(stderr, "unknown scenario '%s' (try --list)\n", names[n].c_str());
        return 2;
      }
      status |= run_scenario(*spec, options);
      if (n + 1 < names.size()) std::printf("\n");
    }
    return status;
  }
  return usage(argv[0]);
}

}  // namespace sss::scenario
