// sweep_workload.cpp — the chain_sweep and facility_mix workloads.
//
// Untraced run: the whole grid once through execute_scenario at 1 thread
// and once through orchestrate() with four single-thread scenario_runner
// shards, then round after round at 4 threads.  Every table must be
// byte-identical (and, at the reference seed, equal the committed table).
// The figure is each cell's CPU time, which a busy shared host disturbs
// far less than wall time.
//
// Traced run: the benchmark drives each cell's Workload itself on its own
// 4 threads, with a span around every layer call (plan expansion, each
// prepare/drive/finish, rendering, orchestration, the shard merge), and
// its rendered rows must equal execute_scenario's.  The wall times of the
// untraced jobs are reported here, as figures without a bound.
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "orchestrator/supervisor.hpp"
#include "scenario/plan.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenarios.hpp"
#include "simnet/topology.hpp"
#include "simnet/workload.hpp"
#include "stats/rng.hpp"
#include "trace/csv.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using sss::scenario::ScenarioContext;
using sss::scenario::ScenarioOutput;
using sss::scenario::ScenarioSpec;
using sss::simnet::ExperimentResult;

constexpr int kThreads = 4;
constexpr int kShards = 4;

std::string scenario_for(const std::string& workload) {
  return workload == "chain_sweep" ? "hop_bottleneck_sweep" : "facility_policy_matrix";
}

// The registry exactly as scenario_runner builds it at start-up, but private,
// so set-up can be timed more than once in a process.
void build_registry(sss::scenario::ScenarioRegistry& registry) {
  using namespace sss::scenario;
  register_figure_scenarios(registry);
  register_ablation_scenarios(registry);
  register_case_study_scenarios(registry);
  register_model_scenarios(registry);
  register_live_scenarios(registry);
  register_stress_scenarios(registry);
  register_topology_scenarios(registry);
  register_calibration_scenarios(registry);
  register_facility_scenarios(registry);
}

ScenarioContext context_for(std::uint64_t seed, int threads) {
  ScenarioContext context;
  context.scale = 1.0;
  context.seed = seed;
  context.threads = threads;
  return context;
}

// Header + rows as CSV lines, formatted by the same writer the runner's
// export uses, so they compare byte for byte with a merged shard file.
std::vector<std::string> csv_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> csv_lines(const ScenarioOutput& output) {
  std::ostringstream out;
  sss::trace::CsvWriter writer(out);
  writer.write_header(output.header);
  for (const auto& row : output.rows) writer.write_row(row);
  return csv_lines(out.str());
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream text;
  text << in.rdbuf();
  return csv_lines(text.str());
}

// Cells of `candidate` whose line differs from `truth` (a header mismatch
// or a missing table fails every cell).
std::uint64_t mismatched_cells(const std::vector<std::string>& truth,
                               const std::vector<std::string>& candidate, std::size_t cells) {
  if (truth.size() != cells + 1 || candidate.size() != truth.size() ||
      candidate[0] != truth[0]) {
    return cells;
  }
  std::uint64_t bad = 0;
  for (std::size_t i = 1; i < truth.size(); ++i) bad += candidate[i] != truth[i] ? 1 : 0;
  return bad;
}

// One grid through execute_scenario: its wall time and each cell's CPU time.
struct GridRun {
  double wall_s = 0.0;
  std::vector<double> cell_cpu_s;
  std::vector<std::string> lines;
  bool threw = false;
};

GridRun run_grid(const ScenarioSpec& spec, std::uint64_t seed, int threads, std::size_t cells) {
  GridRun run;
  run.cell_cpu_s.assign(cells, 0.0);
  // Both hooks run on the cell's worker thread, so that thread's CPU clock
  // between them is the cell's own CPU time.
  static thread_local std::size_t current_cell = 0;
  static thread_local double cell_start_s = 0.0;
  ScenarioContext context = context_for(seed, threads);
  context.on_cell_start = [](std::size_t i) {
    current_cell = i;
    cell_start_s = thread_cpu_s();
  };
  context.progress = [&run](std::size_t, std::size_t) {
    run.cell_cpu_s[current_cell] = thread_cpu_s() - cell_start_s;
  };
  const double t0 = now_s();
  try {
    const ScenarioOutput output = sss::scenario::execute_scenario(spec, context);
    run.wall_s = now_s() - t0;
    run.lines = csv_lines(output);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s at %d threads threw: %s\n", spec.name.c_str(), threads,
                 e.what());
    run.threw = true;
  }
  return run;
}

struct OrchestratedRun {
  double wall_s = 0.0;
  double merge_ms = 0.0;
  double attempts_per_shard = 0.0;
  std::vector<std::string> lines;
  bool merge_matches = true;
};

OrchestratedRun run_orchestrated(const ScenarioSpec& spec, const RunOptions& options,
                                 const std::string& workdir, SpanRecorder* recorder) {
  OrchestratedRun run;
  fs::remove_all(workdir);
  sss::orchestrator::OrchestratorConfig config;
  config.scenario = spec.name;
  config.scale = 1.0;
  config.seed = options.seed;
  config.threads_per_worker = 1;
  config.shards = kShards;
  config.max_parallel = kShards;
  config.runner = options.runner;
  config.workdir = workdir;
  config.quiet = true;
  sss::orchestrator::OrchestratorReport report;
  const double t0 = now_s();
  {
    const ScopedSpan span(recorder, "orchestrator.orchestrate", "orchestrator");
    report = sss::orchestrator::orchestrate(config);
  }
  run.wall_s = now_s() - t0;
  if (report.exit_code == 0) run.lines = read_lines(report.merged_csv);
  int attempts = 0;
  for (const auto& shard : report.shards) attempts += shard.attempts;
  run.attempts_per_shard =
      report.shards.empty() ? 0.0 : static_cast<double>(attempts) / report.shards.size();

  if (recorder != nullptr && report.exit_code == 0) {
    // Re-merge the promoted shard tables through the public merge call, so
    // the merge step has a span of its own.
    std::vector<std::string> parts;
    for (const auto& entry : fs::directory_iterator(workdir + "/parts")) {
      if (entry.path().extension() == ".csv") parts.push_back(entry.path().string());
    }
    const std::string remerged = workdir + "/remerged.csv";
    const double m0 = now_s();
    int code = 0;
    {
      const ScopedSpan span(recorder, "orchestrator.merge", "orchestrator");
      code = sss::scenario::merge_csv_files(remerged, parts);
    }
    run.merge_ms = (now_s() - m0) * 1e3;
    run.merge_matches = code == 0 && read_lines(remerged) == run.lines;
  }
  fs::remove_all(workdir);
  return run;
}

// --- traced grid: the benchmark drives every cell's Workload itself --------

struct TracedGrid {
  double wall_s = 0.0;
  double expand_ms = 0.0;
  double render_ms = 0.0;
  std::vector<double> cell_ms;
  double prepare_ms = 0.0;
  double drive_ms = 0.0;
  double finish_ms = 0.0;
  std::vector<ExperimentResult> results;
  std::vector<std::string> lines;
};

TracedGrid run_traced_grid(const ScenarioSpec& spec, std::uint64_t seed, int threads,
                           SpanRecorder& recorder) {
  TracedGrid grid;
  const double t0 = now_s();
  const int root = recorder.begin("sweep", "bench");

  std::vector<sss::scenario::RunPoint> runs;
  {
    const ScopedSpan span(&recorder, "scenario.expand", "scenario", root);
    runs = spec.plan->expand(context_for(seed, threads));
  }
  // The executor's seeding rule: run i replays the i-th stream of the base
  // seed's jump sequence.
  const std::vector<std::uint64_t> seeds = sss::stats::derive_stream_seeds(seed, runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].substrate != sss::scenario::Substrate::kPacket) {
      throw std::runtime_error("traced sweeps drive packet-substrate cells only");
    }
    if (runs[i].reseed) runs[i].config.seed = seeds[i];
  }

  grid.results.resize(runs.size());
  std::vector<std::exception_ptr> errors(runs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < runs.size(); i = next.fetch_add(1)) {
      const int cell = static_cast<int>(i);
      try {
        const ScopedSpan cell_span(&recorder, "executor.cell", "executor", root, cell);
        sss::simnet::Workload workload(runs[i].config);
        {
          const ScopedSpan span(&recorder, "workload.prepare", "simnet", cell_span.index(), cell);
          workload.prepare();
        }
        {
          const ScopedSpan span(&recorder, "workload.drive", "simnet", cell_span.index(), cell);
          workload.drive();
        }
        const ScopedSpan span(&recorder, "workload.finish", "simnet", cell_span.index(), cell);
        grid.results[i] = workload.finish();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  const int count = std::min<int>(threads, static_cast<int>(runs.size()));
  for (int t = 1; t < count; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& thread : pool) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  ScenarioOutput output;
  {
    const ScopedSpan span(&recorder, "scenario.render", "scenario", root);
    sss::scenario::render_plan_output(spec.plan->output, runs, grid.results, output);
  }
  recorder.end(root);
  grid.wall_s = now_s() - t0;
  grid.lines = csv_lines(output);

  const std::vector<Span> spans = recorder.spans();
  for (const Span& span : spans) {
    // Only this grid's spans: children and grandchildren of its root.
    const bool mine =
        span.parent == root ||
        (span.parent >= 0 && spans[static_cast<std::size_t>(span.parent)].parent == root);
    if (!mine) continue;
    const double ms = (span.end_s - span.start_s) * 1e3;
    if (span.name == "scenario.expand") grid.expand_ms += ms;
    if (span.name == "scenario.render") grid.render_ms += ms;
    if (span.name == "executor.cell") grid.cell_ms.push_back(ms);
    if (span.name == "workload.prepare") grid.prepare_ms += ms;
    if (span.name == "workload.drive") grid.drive_ms += ms;
    if (span.name == "workload.finish") grid.finish_ms += ms;
  }
  return grid;
}

// Exact per-grid work counts from the cells' results.
struct WorkCounts {
  std::uint64_t events = 0;
  std::uint64_t queue_high_water = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rto_events = 0;
  std::uint64_t ingress_offered = 0;
  std::uint64_t clients_admitted = 0;
  double wait_sum_s = 0.0;
  double wait_max_s = 0.0;
  std::uint64_t scheduled_clients = 0;

  friend bool operator==(const WorkCounts&, const WorkCounts&) = default;
};

// Packets offered at the hops where traffic enters the network: the first
// hop of a chain, or every topology edge leaving a tenant's source node.
std::uint64_t ingress_offered(const ExperimentResult& result) {
  const auto& hops = result.metrics.hops;
  if (hops.empty()) return 0;
  if (!result.config.facility_mode()) return hops.front().packets_offered;
  const sss::simnet::TopologyConfig topology =
      sss::simnet::topology_preset(result.config.topology);
  std::set<std::string> sources;
  for (const auto& tenant : result.config.tenants) {
    sources.insert(tenant.src.empty() ? topology.source : tenant.src);
  }
  std::uint64_t offered = 0;
  for (std::size_t i = 0; i < topology.links.size() && i < hops.size(); ++i) {
    if (sources.count(topology.links[i].from) != 0) offered += hops[i].packets_offered;
  }
  return offered;
}

WorkCounts count_work(const std::vector<ExperimentResult>& results) {
  WorkCounts counts;
  for (const ExperimentResult& r : results) {
    counts.events += r.events_processed;
    counts.queue_high_water = std::max(counts.queue_high_water, r.queue_high_water);
    counts.arena_bytes = std::max(counts.arena_bytes, r.arena_reserved_bytes);
    counts.forwarded += r.metrics.packets_forwarded;
    counts.dropped += r.metrics.packets_dropped;
    counts.retransmits += r.metrics.total_retransmits;
    counts.rto_events += r.metrics.total_rto_events;
    counts.ingress_offered += ingress_offered(r);
    if (r.config.scheduler.policy == sss::simnet::SchedPolicy::kNone) continue;
    for (const auto& client : r.metrics.clients) {
      ++counts.scheduled_clients;
      // A client never admitted is censored with start == end (the deadline).
      if (!client.censored || client.start_s < client.end_s) ++counts.clients_admitted;
      counts.wait_sum_s += client.queue_wait_s();
      counts.wait_max_s = std::max(counts.wait_max_s, client.queue_wait_s());
    }
  }
  return counts;
}

double max_of(const std::vector<double>& v) { return percentile(v, 1.0); }

}  // namespace

RunResult run_sweep_workload(const RunOptions& options) {
  RunResult result;
  const std::string name = scenario_for(options.workload);

  // --- set-up: registry build + plan expansion, in CPU seconds of the
  // calling thread.  Sampled at the start and between every grid run, so it
  // is measured across the whole run rather than in one moment of it.
  std::vector<double> setup_s;
  ScenarioSpec spec;
  std::size_t cells = 0;
  auto sample_setup = [&](int count) {
    for (int k = 0; k < count; ++k) {
      const double t0 = thread_cpu_s();
      sss::scenario::ScenarioRegistry registry;
      build_registry(registry);
      const ScenarioSpec* found = registry.find(name);
      if (found == nullptr || found->plan == nullptr) {
        throw std::runtime_error("scenario '" + name + "' is not a registered plan");
      }
      cells = found->plan->expand(context_for(options.seed, kThreads)).size();
      setup_s.push_back(thread_cpu_s() - t0);
      spec = *found;
    }
  };
  sample_setup(41);

  std::vector<std::string> reference;
  if (options.seed == kReferenceSeed) {
    reference = read_lines(options.reference_dir + "/" + options.workload + ".csv");
  }
  const double deadline = now_s() + options.seconds;

  if (!options.trace) {
    // Warm-up: the grid once at 1 thread and once through orchestrate().
    // Every 4-thread round below must reproduce these rows.  Peak memory is
    // read after the 1-thread grid, whose allocations do not depend on how
    // cells land on threads.
    const GridRun one = run_grid(spec, options.seed, 1, cells);
    const double serial_peak_rss_mb = peak_rss_mb();
    const OrchestratedRun orch =
        run_orchestrated(spec, options, options.work_dir + "/orch", nullptr);
    result.attempted += 2 * cells;
    result.failed += mismatched_cells(one.lines, orch.lines, cells);
    if (options.seed == kReferenceSeed) {
      result.failed += mismatched_cells(reference, one.lines, cells);
    }

    // A co-runner on the host can only slow a cell down, and on a shared
    // host it does so in bursts of a few seconds, so each cell's CPU time
    // is its least over the rounds; cpu_s sums them over the grid.
    const double measure_until = now_s() + options.seconds;
    std::vector<double> cell_cpu(cells, std::numeric_limits<double>::infinity());
    double round_start = now_s();
    do {
      round_start = now_s();
      const GridRun four = run_grid(spec, options.seed, kThreads, cells);
      sample_setup(20);
      result.attempted += cells;
      result.failed += mismatched_cells(one.lines, four.lines, cells);
      if (four.threw) break;
      for (std::size_t i = 0; i < cells; ++i) {
        cell_cpu[i] = std::min(cell_cpu[i], four.cell_cpu_s[i]);
      }
    } while (round_fits(round_start, measure_until) && result.failed == 0);

    result.add("setup_s", median(setup_s), "s");
    result.add("cpu_s", std::accumulate(cell_cpu.begin(), cell_cpu.end(), 0.0), "s");
    result.add("peak_rss_mb", serial_peak_rss_mb, "MB");
    return result;
  }

  // --- traced run ---------------------------------------------------------
  SpanRecorder recorder;
  std::vector<double> expand_ms, render_ms, cell_p50, cell_max, imbalance, prepare_ms,
      drive_ms, finish_ms, ns_per_event, overhead_ms, wall4;
  double wall1 = 0.0;
  WorkCounts counts;
  std::vector<std::string> untraced_lines;
  int rounds = 0;
  double round_start = now_s();
  do {
    round_start = now_s();
    const GridRun untraced = run_grid(spec, options.seed, kThreads, cells);
    untraced_lines = untraced.lines;
    wall4.push_back(untraced.wall_s);
    const TracedGrid traced = run_traced_grid(spec, options.seed, kThreads, recorder);
    result.attempted += 2 * cells;
    result.failed += mismatched_cells(untraced.lines, traced.lines, cells);
    const WorkCounts round_counts = count_work(traced.results);
    if (rounds == 0) {
      // Exact counts must not depend on the thread count.
      SpanRecorder serial_recorder;
      const TracedGrid serial = run_traced_grid(spec, options.seed, 1, serial_recorder);
      result.attempted += cells;
      if (!(count_work(serial.results) == round_counts) || serial.lines != traced.lines) {
        result.failed += cells;
      }
      counts = round_counts;
      const GridRun one = run_grid(spec, options.seed, 1, cells);
      result.attempted += cells;
      result.failed += mismatched_cells(untraced.lines, one.lines, cells);
      wall1 = one.wall_s;
    } else if (!(round_counts == counts)) {
      result.failed += cells;
    }
    expand_ms.push_back(traced.expand_ms);
    render_ms.push_back(traced.render_ms);
    cell_p50.push_back(median(traced.cell_ms));
    cell_max.push_back(max_of(traced.cell_ms));
    double mean = 0.0;
    for (const double ms : traced.cell_ms) mean += ms / static_cast<double>(traced.cell_ms.size());
    imbalance.push_back(mean > 0.0 ? max_of(traced.cell_ms) / mean : 0.0);
    prepare_ms.push_back(traced.prepare_ms);
    drive_ms.push_back(traced.drive_ms);
    finish_ms.push_back(traced.finish_ms);
    ns_per_event.push_back(traced.drive_ms * 1e6 / static_cast<double>(round_counts.events));
    overhead_ms.push_back((traced.wall_s - untraced.wall_s) * 1e3);
    ++rounds;
  } while (round_fits(round_start, deadline));

  const OrchestratedRun orch =
      run_orchestrated(spec, options, options.work_dir + "/orch-traced", &recorder);
  result.attempted += cells;
  result.failed += mismatched_cells(untraced_lines, orch.lines, cells);
  result.failed += orch.merge_matches ? 0 : cells;

  result.add("sweep.wall_s", median(wall4), "s");
  result.add("sweep.wall_1t_s", wall1, "s");
  result.add("orch.wall_s", orch.wall_s, "s");
  result.add("scenario.expand_ms", median(expand_ms), "ms");
  result.add("scenario.render_ms", median(render_ms), "ms");
  result.add("executor.cell_ms.p50", median(cell_p50), "ms");
  result.add("executor.cell_ms.max", median(cell_max), "ms");
  result.add("executor.imbalance", median(imbalance), "ratio");
  result.add("workload.prepare_ms", median(prepare_ms), "ms");
  result.add("workload.drive_ms", median(drive_ms), "ms");
  result.add("workload.finish_ms", median(finish_ms), "ms");
  result.add("sim.events", static_cast<double>(counts.events), "count");
  result.add("sim.ns_per_event", median(ns_per_event), "ns");
  result.add("sim.queue_high_water", static_cast<double>(counts.queue_high_water), "count");
  result.add("sim.arena_mb", static_cast<double>(counts.arena_bytes) / (1024.0 * 1024.0), "MB");
  result.add("net.packets_forwarded", static_cast<double>(counts.forwarded), "count");
  result.add("net.packets_dropped", static_cast<double>(counts.dropped), "count");
  result.add("net.retransmits", static_cast<double>(counts.retransmits), "count");
  result.add("net.rto_events", static_cast<double>(counts.rto_events), "count");
  result.add("net.delivered_ratio",
             counts.ingress_offered > 0 ? static_cast<double>(counts.forwarded) /
                                              static_cast<double>(counts.ingress_offered)
                                        : 0.0,
             "ratio");
  result.add("sched.clients_admitted", static_cast<double>(counts.clients_admitted), "count");
  result.add("sched.mean_queue_wait_s",
             counts.scheduled_clients > 0
                 ? counts.wait_sum_s / static_cast<double>(counts.scheduled_clients)
                 : 0.0,
             "sim_s");
  result.add("sched.max_queue_wait_s", counts.wait_max_s, "sim_s");
  result.add("orch.attempts_per_shard", orch.attempts_per_shard, "ratio");
  result.add("orch.merge_ms", orch.merge_ms, "ms");
  result.add("trace.overhead_ms", median(overhead_ms), "ms");
  result.add("trace.spans", static_cast<double>(recorder.spans().size()), "count");
  for (const char* layer : {"scenario", "executor", "simnet", "orchestrator"}) {
    // Self time per traced grid; the orchestrator ran once.
    const double per = std::string(layer) == "orchestrator" ? 1.0 : rounds;
    result.add(std::string("self_ms.") + layer, recorder.self_ms(layer) / per, "ms");
  }
  result.spans_json = recorder.to_json();
  complete_per_layer(result);
  return result;
}

}  // namespace perfbench
