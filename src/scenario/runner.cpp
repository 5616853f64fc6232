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
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/phase_timer.hpp"
#include "obs/timeline.hpp"
#include "scenario/env.hpp"
#include "scenario/executor.hpp"
#include "scenario/overrides.hpp"
#include "scenario/plan.hpp"
#include "scenario/registry.hpp"
#include "trace/atomic_io.hpp"
#include "trace/csv.hpp"
#include "trace/json.hpp"
#include "trace/table.hpp"

namespace sss::scenario {

namespace {

void print_banner(const ScenarioSpec& spec) {
  std::printf("================================================================\n");
  std::printf("sss scenario     | %s\n", spec.title.c_str());
  std::printf("paper reference  | %s\n", spec.paper_ref.c_str());
  std::printf("================================================================\n");
}

std::string csv_name(const ScenarioSpec& spec, const std::optional<ShardSpec>& shard) {
  if (!shard.has_value()) return spec.name + ".csv";
  if (shard->cells.has_value()) {
    return spec.name + ".cells" + std::to_string(shard->cells->first) + "-" +
           std::to_string(shard->cells->second) + ".csv";
  }
  return spec.name + ".shard" + std::to_string(shard->index) + "of" +
         std::to_string(shard->count) + ".csv";
}

// Returns the written path so the truncate fault can corrupt it afterwards.
std::optional<std::string> write_csv(const ScenarioSpec& spec,
                                     const ScenarioOutput& output,
                                     const std::string& dir,
                                     const std::optional<ShardSpec>& shard) {
  if (output.header.empty()) return std::nullopt;
  const std::string path = dir + "/" + csv_name(spec, shard);
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

// Expand the plan and apply the context's --param overrides — the shared
// front half of full and sharded execution.
std::vector<RunPoint> expand_runs(const ScenarioSpec& spec, const ScenarioContext& context) {
  std::vector<RunPoint> runs;
  if (spec.plan != nullptr) runs = spec.plan->expand(context);
  apply_param_overrides(runs, context.param_overrides);
  return runs;
}

SweepExecutor make_executor(const ScenarioContext& context) {
  SweepOptions sweep;
  sweep.threads = context.threads;
  sweep.base_seed = context.seed;
  return SweepExecutor(sweep);
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
// wall times from the executor, GLOBAL indices via `offset` (shard begin).
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

}  // namespace

std::pair<std::size_t, std::size_t> ShardSpec::resolve(std::size_t total) const {
  if (cells.has_value()) {
    const auto [begin, end] = *cells;
    if (begin >= end || end > total) {
      throw std::invalid_argument(
          "--cells " + std::to_string(begin) + ":" + std::to_string(end) +
          " is not a non-empty range inside this grid (" + std::to_string(total) +
          " cells)");
    }
    return {begin, end};
  }
  return shard_range(index, count, total);
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
                                obs::RunManifest* manifest) {
  std::vector<RunPoint> runs = expand_runs(spec, context);
  SweepExecutor executor = make_executor(context);
  executor.timeline = context.timeline;
  executor.timeline_index = context.timeline_cell;  // unsharded: global == local
  executor.on_progress = context.progress;
  executor.on_run_start = context.on_cell_start;  // unsharded: global == local
  const std::vector<simnet::ExperimentResult> results = executor.execute(runs);
  if (manifest != nullptr) {
    fill_manifest(*manifest, spec, context, runs.size(), 0, runs, results,
                  executor.last_cell_wall_ms());
  }

  ScenarioOutput output;
  if (spec.has_declarative_output()) {
    render_plan_output(spec.plan->output, runs, results, output);
    if (spec.annotate) spec.annotate(context, runs, results, output);
  } else if (spec.analyze) {
    spec.analyze(context, runs, results, output);
  } else {
    throw std::logic_error("scenario '" + spec.name +
                           "' has neither declarative output nor analyze");
  }
  validate_output(spec, output);
  return output;
}

ScenarioOutput execute_scenario_shard(const ScenarioSpec& spec,
                                      const ScenarioContext& context,
                                      const ShardSpec& shard,
                                      obs::RunManifest* manifest) {
  if (!spec.has_declarative_output()) {
    throw std::invalid_argument(
        "scenario '" + spec.name +
        "' reduces across runs (no declarative output spec), so its rows cannot be "
        "computed per shard");
  }
  std::vector<RunPoint> runs = expand_runs(spec, context);
  SweepExecutor executor = make_executor(context);

  // Pin every cell's seed from its GLOBAL grid index before slicing — the
  // exact streams the executor would derive in a single-process run — so
  // merged shard output is bit-identical to the unsharded sweep.
  const std::vector<std::uint64_t> seeds = executor.derive_seeds(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].reseed) {
      runs[i].config.seed = seeds[i];
      runs[i].reseed = false;
    }
  }
  const auto [begin, end] = shard.resolve(runs.size());
  std::vector<RunPoint> slice(runs.begin() + static_cast<std::ptrdiff_t>(begin),
                              runs.begin() + static_cast<std::ptrdiff_t>(end));

  executor.on_progress = context.progress;
  if (context.on_cell_start) {
    // The hook's contract is GLOBAL indices; translate from slice-local.
    executor.on_run_start = [hook = context.on_cell_start,
                             begin = begin](std::size_t local) { hook(begin + local); };
  }
  // context.timeline_cell is a GLOBAL index; attach the recorder only when
  // the requested cell falls inside this shard's slice.
  if (context.timeline != nullptr && context.timeline_cell >= begin &&
      context.timeline_cell < end) {
    executor.timeline = context.timeline;
    executor.timeline_index = context.timeline_cell - begin;
  }

  const std::vector<simnet::ExperimentResult> results = executor.execute(slice);
  if (manifest != nullptr) {
    fill_manifest(*manifest, spec, context, runs.size(), begin, slice, results,
                  executor.last_cell_wall_ms());
  }
  ScenarioOutput output;
  render_plan_output(spec.plan->output, slice, results, output);
  validate_output(spec, output);
  return output;
}

RunnerOptions options_from_env() {
  RunnerOptions options;
  options.context = context_from_env();
  options.csv_dir = csv_dir_from_env();
  return options;
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
  if (options.phase_timers) {
    obs::reset_phase_totals();
    obs::set_phase_timing_enabled(true);
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

  ScenarioOutput output;
  try {
    if (!options.quiet) {
      print_banner(spec);
      // Plan expansion is pure and cheap (config building only), so
      // counting here and re-expanding inside execute_scenario costs
      // nothing.
      const std::size_t grid = spec.plan != nullptr ? spec.plan->cell_count() : 0;
      std::size_t run_count = grid;
      if (options.shard.has_value()) {
        const auto [begin, end] = options.shard->resolve(grid);
        run_count = end - begin;
        if (options.shard->cells.has_value()) {
          std::printf("cells [%zu, %zu) of %zu\n", begin, end, grid);
        } else {
          std::printf("shard %d/%d: cells [%zu, %zu) of %zu\n", options.shard->index,
                      options.shard->count, begin, end, grid);
        }
      }
      if (run_count > 0) {
        SweepOptions sweep;
        sweep.threads = options.context.threads;
        const int threads = SweepExecutor(sweep).effective_threads(run_count);
        std::printf(
            "executing %zu simulation runs on %d thread%s (scale %.2f, seed %llu)\n\n",
            run_count, threads, threads == 1 ? "" : "s", options.context.scale,
            static_cast<unsigned long long>(options.context.seed));
      }
    }
    output = options.shard.has_value()
                 ? execute_scenario_shard(spec, context, *options.shard,
                                          want_manifest ? &manifest : nullptr)
                 : execute_scenario(spec, context,
                                    want_manifest ? &manifest : nullptr);
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
        write_csv(spec, output, *options.csv_dir, options.shard);
    if (csv_path.has_value() && options.inject_fault.has_value() &&
        options.inject_fault->kind == FaultSpec::Kind::kTruncate) {
      // Only the worker whose slice contains the target cell corrupts its
      // artifact, mirroring how crash/hang pick their victim.
      const std::size_t grid = spec.plan != nullptr ? spec.plan->cell_count() : 0;
      const auto [begin, end] = options.shard.has_value()
                                    ? options.shard->resolve(grid)
                                    : std::pair<std::size_t, std::size_t>{0, grid};
      const std::size_t cell = options.inject_fault->cell;
      if (cell >= begin && cell < end && consume_fault_arm()) {
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

namespace {

// A shard-part file name as the runner writes it:
//   <scenario>.shard<I>of<N>.csv   (--shard I/N block partition)
//   <scenario>.cells<A>-<B>.csv    (--cells A:B explicit range)
// nullopt for anything else (plain CSVs merge without structural checks).
struct PartName {
  std::string scenario;
  bool block = false;  // shard<I>of<N> form (else cells form)
  int index = 0;
  int count = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::optional<PartName> parse_part_name(std::string_view path) {
  const std::size_t slash = path.find_last_of('/');
  std::string_view base =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  if (!base.ends_with(".csv")) return std::nullopt;
  base.remove_suffix(4);
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string_view::npos || dot == 0) return std::nullopt;
  std::string_view tail = base.substr(dot + 1);
  PartName part;
  part.scenario = std::string(base.substr(0, dot));
  if (tail.starts_with("shard")) {
    tail.remove_prefix(5);
    const std::size_t of = tail.find("of");
    if (of == std::string_view::npos) return std::nullopt;
    const auto index = parse_int(tail.substr(0, of));
    const auto count = parse_int(tail.substr(of + 2));
    if (!index.has_value() || !count.has_value() || *count < 1 || *index < 0 ||
        *index >= *count) {
      return std::nullopt;
    }
    part.block = true;
    part.index = *index;
    part.count = *count;
    return part;
  }
  if (tail.starts_with("cells")) {
    tail.remove_prefix(5);
    const std::size_t dash = tail.find('-');
    if (dash == std::string_view::npos) return std::nullopt;
    const auto begin = parse_uint64(tail.substr(0, dash));
    const auto end = parse_uint64(tail.substr(dash + 1));
    if (!begin.has_value() || !end.has_value() || *begin >= *end) return std::nullopt;
    part.begin = static_cast<std::size_t>(*begin);
    part.end = static_cast<std::size_t>(*end);
    return part;
  }
  return std::nullopt;
}

// Structural validation for shard-named inputs: scenario prefixes must
// agree and the parts must cover the grid exactly once.  Returns the order
// in which the parts must be concatenated (by shard index / cell begin),
// so argument order cannot scramble the merged table.
std::vector<std::size_t> validate_shard_parts(const std::vector<std::string>& inputs,
                                              const std::vector<trace::CsvTable>& parts) {
  std::vector<std::optional<PartName>> names;
  names.reserve(inputs.size());
  std::size_t named = 0;
  for (const std::string& input : inputs) {
    names.push_back(parse_part_name(input));
    if (names.back().has_value()) ++named;
  }
  std::vector<std::size_t> order(inputs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (named == 0) return order;  // plain CSVs: concatenate in argument order
  if (named != inputs.size()) {
    throw std::invalid_argument(
        "mix of shard-named and plain inputs — refusing to guess the cell order");
  }
  for (std::size_t i = 1; i < names.size(); ++i) {
    if (names[i]->scenario != names[0]->scenario) {
      throw std::invalid_argument("scenario names disagree: '" + names[0]->scenario +
                                  "' vs '" + names[i]->scenario + "'");
    }
    if (names[i]->block != names[0]->block) {
      throw std::invalid_argument("mix of shard<I>of<N> and cells<A>-<B> inputs");
    }
  }
  if (names[0]->block) {
    const int count = names[0]->count;
    if (static_cast<int>(inputs.size()) != count) {
      throw std::invalid_argument("expected " + std::to_string(count) +
                                  " shard files, got " + std::to_string(inputs.size()));
    }
    std::vector<int> seen(static_cast<std::size_t>(count), -1);
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i]->count != count) {
        throw std::invalid_argument("shard counts disagree: of" + std::to_string(count) +
                                    " vs of" + std::to_string(names[i]->count));
      }
      const auto index = static_cast<std::size_t>(names[i]->index);
      if (seen[index] >= 0) {
        throw std::invalid_argument("duplicate shard index " + std::to_string(index));
      }
      seen[index] = static_cast<int>(i);
    }
    // Every index in 0..N-1 appears exactly once (duplicates already
    // refused, sizes match), so `seen` is the concatenation order.
    std::vector<std::size_t> by_index;
    by_index.reserve(seen.size());
    for (int input : seen) by_index.push_back(static_cast<std::size_t>(input));
    return by_index;
  }
  // cells form: ranges must tile [0, max_end) without gap or overlap, and
  // each part must hold exactly one row per cell — a shard that lost rows
  // to a crash is refused here, not silently merged.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return names[a]->begin < names[b]->begin;
  });
  std::size_t expected_begin = 0;
  for (std::size_t position : order) {
    const PartName& name = *names[position];
    if (name.begin != expected_begin) {
      throw std::invalid_argument(
          name.begin > expected_begin
              ? "missing cells [" + std::to_string(expected_begin) + ", " +
                    std::to_string(name.begin) + ")"
              : "overlapping cell ranges at cell " + std::to_string(name.begin));
    }
    const std::size_t cells = name.end - name.begin;
    if (parts[position].rows.size() != cells) {
      throw std::invalid_argument(
          inputs[position] + " has " + std::to_string(parts[position].rows.size()) +
          " rows for cells [" + std::to_string(name.begin) + ", " +
          std::to_string(name.end) + ") — expected " + std::to_string(cells));
    }
    expected_begin = name.end;
  }
  return order;
}

}  // namespace

int merge_csv_files(const std::string& out_path, const std::vector<std::string>& inputs) {
  try {
    std::vector<trace::CsvTable> parts;
    parts.reserve(inputs.size());
    for (const std::string& path : inputs) parts.push_back(trace::read_csv_file(path));
    const std::vector<std::size_t> order = validate_shard_parts(inputs, parts);
    std::vector<trace::CsvTable> ordered;
    ordered.reserve(parts.size());
    for (std::size_t position : order) ordered.push_back(std::move(parts[position]));
    const trace::CsvTable merged = trace::merge_csv_tables(ordered);
    trace::write_csv_file(out_path, merged.header, merged.rows);
    std::printf("merged %zu rows from %zu shard file%s into %s\n", merged.rows.size(),
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

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
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
               "       %s --merge OUT.csv SHARD.csv [SHARD.csv...]\n"
               "       %s --merge OUT.json SHARD.json [...]   (metrics manifests)\n"
               "       %s --cost-report METRICS.json          (report a saved manifest)\n"
               "       %s --check-obs TIMELINE.json METRICS.json\n"
               "options:\n"
               "  --threads N   sweep worker threads (0 = hardware, 1 = serial)\n"
               "  --scale S     duration scale in (0, 1]\n"
               "  --seed K      base seed for per-run RNG streams\n"
               "  --csv-dir D   also write <D>/<scenario>.csv\n"
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
               "  --timeline-cell K   which GLOBAL grid cell to record (default 0)\n"
               "  --metrics-out F     write the per-cell runtime manifest (JSON) to F\n"
               "  --cost-report       print the slowest cells after the run\n"
               "  --phase-timers      host-time phase accounting report on stderr\n"
               "  --quiet             suppress banner and live progress\n"
               "environment:    SSS_BENCH_SCALE, SSS_BENCH_CSV_DIR,\n"
               "                SSS_SWEEP_THREADS, SSS_SWEEP_SEED,\n"
               "                SSS_SCENARIO_PARAMS=k=v,k=v (flags win)\n",
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
  shard.cells = {static_cast<std::size_t>(*begin), static_cast<std::size_t>(*end)};
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
  RunnerOptions options = options_from_env();

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
      return ends_with(out_path, ".json") ? merge_manifest_files(out_path, inputs)
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
      // Appended after any SSS_SCENARIO_PARAMS entries, so flags win.
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
  if (all) {
    int status = 0;
    for (const ScenarioSpec* spec : ScenarioRegistry::global().all()) {
      if (!tag.empty() && !spec->has_tag(tag)) continue;
      status |= run_scenario(*spec, options);
      std::printf("\n");
    }
    return status;
  }
  if (!names_arg.empty()) {
    // Same comma-list format (and splitter) as SSS_SCENARIO_PARAMS.
    const std::vector<std::string> names = split_param_list(names_arg);
    if (names.empty()) return usage(argv[0]);
    if (options.shard.has_value() && names.size() > 1) {
      std::fprintf(stderr, "--shard works with exactly one scenario at a time\n");
      return 2;
    }
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
