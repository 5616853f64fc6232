#include "orchestrator/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "obs/manifest.hpp"
#include "orchestrator/ledger.hpp"
#include "orchestrator/process.hpp"
#include "scenario/plan.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "trace/atomic_io.hpp"
#include "trace/csv.hpp"
#include "trace/json.hpp"
#include "trace/parse.hpp"

namespace sss::orchestrator {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

// Cost-model defaults when no --timeout-s/--speculate-after-s is given: a
// shard is killed past 4x its estimated seconds (never under 10 s), and a
// straggler is duplicated past 3x.
constexpr double kTimeoutFactor = 4.0;
constexpr double kTimeoutFloorS = 10.0;
constexpr double kSpeculateFactor = 3.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One in-flight worker process for some shard.
struct Attempt {
  WorkerHandle handle;
  int number = 0;  // 1-based attempt number for this shard
  std::string dir;
  std::string csv_path;
  std::string metrics_path;
  Clock::time_point started;
};

enum class ShardState { kPending, kRunning, kDone, kExhausted };

struct Shard {
  CellRange range;
  std::string stem;  // part_stem: "<scenario>.cells<A>-<B>of<N>"
  ShardState state = ShardState::kPending;
  int failures = 0;       // spent retry budget (includes replayed failures)
  int last_attempt = 0;   // highest attempt number ever launched
  Clock::time_point eligible;  // backoff gate for the next launch
  Clock::time_point first_launch;
  bool launched_this_run = false;
  int launches_this_run = 0;
  std::vector<Attempt> attempts;  // currently in flight (1, or 2 speculating)

  // Cost-model estimate of this shard's wall seconds; 0 = unknown.
  double estimate_s = 0.0;
};

// The local worker command for one shard attempt.
std::vector<std::string> worker_argv(const OrchestratorConfig& config,
                                     const CellRange& range,
                                     const std::string& attempt_dir) {
  char scale_buffer[32];  // exact round-trip: the worker must run THIS scale
  std::vector<std::string> argv = {
      config.runner,
      "--run", config.scenario,
      "--quiet",
      "--threads", std::to_string(config.threads_per_worker),
      "--scale", trace::format_double_exact(config.scale, scale_buffer),
      "--seed", std::to_string(config.seed),
      "--cells",
      std::to_string(range.begin) + ":" + std::to_string(range.end),
      "--csv-dir", attempt_dir,
      "--metrics-out", attempt_dir + "/metrics.json",
  };
  for (const std::string& param : config.params) {
    argv.push_back("--param");
    argv.push_back(param);
  }
  for (const std::string& arg : config.worker_args) argv.push_back(arg);
  return argv;
}

// Validate one finished attempt's artifacts.  Returns empty on success,
// else the reason the attempt is rejected.
std::string validate_attempt(const OrchestratorConfig& config,
                             const CellRange& range, const Attempt& attempt) {
  try {
    (void)scenario::read_part(attempt.csv_path);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }

  std::error_code ec;
  if (!fs::exists(attempt.metrics_path, ec)) return "no metrics manifest written";
  obs::RunManifest manifest;
  try {
    manifest =
        obs::RunManifest::from_json_text(trace::read_text_file(attempt.metrics_path));
  } catch (const std::exception& e) {
    return std::string("metrics manifest unreadable: ") + e.what();
  }
  if (manifest.scenario != config.scenario) return "manifest scenario mismatch";
  if (manifest.seed != config.seed) return "manifest seed mismatch";
  if (manifest.scale != config.scale) return "manifest scale mismatch";
  if (manifest.cells.size() != range.size()) return "manifest cell count mismatch";
  for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
    if (manifest.cells[i].index != range.begin + i) {
      return "manifest cell indices do not cover the shard range";
    }
  }
  return {};
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);  // best-effort cleanup; never throws
}

}  // namespace

OrchestratorReport orchestrate(const OrchestratorConfig& config) {
  // --- resolve the scenario and its grid size (in-process; the workers
  // will re-resolve it themselves) ---
  scenario::register_builtin_scenarios();
  const scenario::ScenarioSpec* spec =
      scenario::ScenarioRegistry::global().find(config.scenario);
  if (spec == nullptr) {
    throw std::invalid_argument("unknown scenario '" + config.scenario + "'");
  }
  if (!spec->has_declarative_output()) {
    throw std::invalid_argument("scenario '" + config.scenario +
                                "' has no declarative output spec; it cannot be "
                                "sharded (see scenario/spec.hpp)");
  }
  const std::size_t total = spec->plan->cell_count();
  if (total == 0) throw std::invalid_argument("scenario grid is empty");

  if (config.runner.empty()) throw std::invalid_argument("runner path is empty");
  if (config.workdir.empty()) throw std::invalid_argument("workdir is empty");
  fs::create_directories(config.workdir);
  const std::string parts_dir = config.workdir + "/parts";
  const std::string logs_dir = config.workdir + "/logs";
  fs::create_directories(parts_dir);
  fs::create_directories(logs_dir);

  // --- partition the grid ---
  std::vector<double> costs;  // per-cell wall ms; empty = no cost model
  if (config.cost_model_path.has_value()) {
    const obs::RunManifest manifest = obs::RunManifest::from_json_text(
        trace::read_text_file(*config.cost_model_path));
    costs = costs_from_manifest(manifest, total);
  }
  const std::vector<CellRange> ranges =
      costs.empty() ? partition_contiguous(total, config.shards)
                    : partition_weighted(costs, config.shards);

  // --- open (or replay) the work ledger ---
  LedgerPlan plan_record;
  plan_record.scenario = config.scenario;
  plan_record.seed = config.seed;
  plan_record.scale = config.scale;
  plan_record.total_cells = total;
  for (const CellRange& range : ranges) {
    plan_record.shards.emplace_back(range.begin, range.end);
  }
  Ledger ledger(config.workdir + "/ledger.jsonl", plan_record, config.resume);

  std::vector<Shard> shards(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    Shard& shard = shards[i];
    shard.range = ranges[i];
    shard.stem = scenario::part_stem(config.scenario, ranges[i], total);
    shard.eligible = Clock::now();
    if (!costs.empty()) {
      double sum = 0.0;
      for (std::size_t c = ranges[i].begin; c < ranges[i].end; ++c) sum += costs[c];
      shard.estimate_s = sum / 1000.0;
    }
    const ShardReplay& replayed = ledger.replay()[i];
    shard.failures = replayed.failures;
    shard.last_attempt = replayed.last_attempt;
    if (replayed.exhausted && replayed.failures >= config.retry.max_attempts) {
      shard.state = ShardState::kExhausted;
    } else if (replayed.done) {
      // Trust the journal only if the promoted artifacts are still there,
      // under this name, and still pass the checks that promoted them: a
      // part promoted under an older name, or cut short since, re-runs.
      Attempt promoted;
      promoted.csv_path = parts_dir + "/" + shard.stem + ".csv";
      promoted.metrics_path = parts_dir + "/" + shard.stem + ".metrics.json";
      if (validate_attempt(config, shard.range, promoted).empty()) {
        shard.state = ShardState::kDone;
      }
    }
    if (shard.state == ShardState::kPending &&
        shard.failures >= config.retry.max_attempts) {
      // Budget already spent in the journal; do not relaunch.
      ledger.record_exhausted(i);
      shard.state = ShardState::kExhausted;
    }
  }
  if (ledger.resumed() && !config.quiet) {
    std::size_t done = 0;
    for (const Shard& shard : shards) {
      if (shard.state == ShardState::kDone) ++done;
    }
    std::printf("orchestrator: resumed ledger — %zu/%zu shards already done\n",
                done, shards.size());
  }

  const auto deadline_for = [&](const Shard& shard) -> double {
    if (config.timeout_s > 0.0) return config.timeout_s;
    if (shard.estimate_s > 0.0) {
      return std::max(kTimeoutFloorS, kTimeoutFactor * shard.estimate_s);
    }
    return 0.0;  // no deadline
  };
  const auto speculate_for = [&](const Shard& shard) -> double {
    if (config.speculate_after_s > 0.0) return config.speculate_after_s;
    if (shard.estimate_s > 0.0) return kSpeculateFactor * shard.estimate_s;
    return 0.0;  // speculation off
  };

  // --- launch helper ---
  const auto launch = [&](std::size_t index, bool speculative) {
    Shard& shard = shards[index];
    const int attempt_no = ++shard.last_attempt;
    const std::string attempt_dir = config.workdir + "/shard" + std::to_string(index) +
                                    "/a" + std::to_string(attempt_no);
    fs::create_directories(attempt_dir);

    Attempt attempt;
    attempt.number = attempt_no;
    attempt.dir = attempt_dir;
    attempt.csv_path = attempt_dir + "/" + shard.stem + ".csv";
    attempt.metrics_path = attempt_dir + "/metrics.json";
    const std::string log_path = logs_dir + "/shard" + std::to_string(index) + ".a" +
                                 std::to_string(attempt_no) + ".log";

    // Journal BEFORE spawning: a crash between the two at worst re-runs an
    // attempt that never started.
    ledger.record_launch(index, attempt_no);

    const std::vector<std::string> argv = worker_argv(config, shard.range, attempt_dir);
    if (config.command_template.has_value()) {
      std::string command;
      for (const std::string& arg : argv) {
        if (!command.empty()) command += ' ';
        command += shell_quote(arg);
      }
      const std::string rendered = render_command_template(
          *config.command_template, command, shard.range.begin, shard.range.end, index);
      attempt.handle = spawn_shell(rendered, log_path);
    } else {
      attempt.handle = spawn_process(argv, log_path);
    }
    attempt.started = Clock::now();
    if (shard.attempts.empty()) shard.first_launch = attempt.started;
    if (!config.quiet) {
      std::printf("orchestrator: shard %zu cells [%zu, %zu) attempt %d%s (pid %d)\n",
                  index, shard.range.begin, shard.range.end, attempt_no,
                  speculative ? " [speculative]" : "", attempt.handle.pid);
    }
    shard.attempts.push_back(std::move(attempt));
    shard.state = ShardState::kRunning;
    shard.launches_this_run += 1;
  };

  // --- the event loop ---
  const auto active_count = [&]() {
    std::size_t n = 0;
    for (const Shard& shard : shards) n += shard.attempts.size();
    return n;
  };

  const auto fail_shard_attempt = [&](std::size_t index, Attempt& attempt,
                                      const std::string& reason) {
    kill_worker(attempt.handle);
    ledger.record_fail(index, attempt.number, reason);
    remove_tree(attempt.dir);
    if (!config.quiet) {
      std::printf("orchestrator: shard %zu attempt %d failed: %s\n", index,
                  attempt.number, reason.c_str());
    }
  };

  for (;;) {
    bool all_settled = true;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      Shard& shard = shards[i];
      if (shard.state == ShardState::kDone || shard.state == ShardState::kExhausted) {
        continue;
      }
      all_settled = false;

      // Poll in-flight attempts.
      for (std::size_t a = 0; a < shard.attempts.size();) {
        Attempt& attempt = shard.attempts[a];
        const std::optional<int> status = poll_worker(attempt.handle);
        if (!status.has_value()) {
          // Still running — enforce the deadline.
          const double deadline = deadline_for(shard);
          if (deadline > 0.0 && seconds_since(attempt.started) > deadline) {
            ++shard.failures;
            fail_shard_attempt(i, attempt, "deadline exceeded (" +
                                               std::to_string(deadline) + "s)");
            shard.attempts.erase(shard.attempts.begin() + static_cast<long>(a));
            continue;
          }
          ++a;
          continue;
        }

        std::string reason;
        if (*status != 0) {
          reason = "exit code " + std::to_string(*status);
        } else {
          reason = validate_attempt(config, shard.range, attempt);
        }
        if (reason.empty()) {
          // First VALID completion wins: promote by rename, kill siblings.
          const std::string part_csv = parts_dir + "/" + shard.stem + ".csv";
          const std::string part_metrics = parts_dir + "/" + shard.stem + ".metrics.json";
          std::error_code ec;
          fs::rename(attempt.csv_path, part_csv, ec);
          if (!ec) fs::rename(attempt.metrics_path, part_metrics, ec);
          if (ec) {
            ++shard.failures;
            fail_shard_attempt(i, attempt, "promote failed: " + ec.message());
            shard.attempts.erase(shard.attempts.begin() + static_cast<long>(a));
            continue;
          }
          ledger.record_done(i, attempt.number, part_csv);
          remove_tree(attempt.dir);
          for (Attempt& other : shard.attempts) {
            if (&other != &attempt) {
              kill_worker(other.handle);
              remove_tree(other.dir);
            }
          }
          shard.attempts.clear();
          shard.state = ShardState::kDone;
          if (!config.quiet) {
            std::printf("orchestrator: shard %zu done (attempt %d)\n", i,
                        attempt.number);
          }
          break;
        }

        ++shard.failures;
        fail_shard_attempt(i, attempt, reason);
        shard.attempts.erase(shard.attempts.begin() + static_cast<long>(a));
      }
      if (shard.state == ShardState::kDone) continue;

      // Exhaustion: budget spent and nothing left in flight.
      if (shard.attempts.empty() && shard.failures >= config.retry.max_attempts) {
        ledger.record_exhausted(i);
        shard.state = ShardState::kExhausted;
        if (!config.quiet) {
          std::printf("orchestrator: shard %zu exhausted after %d failures\n", i,
                      shard.failures);
        }
        continue;
      }

      // Backoff gate for the next (re)launch.
      if (shard.attempts.empty()) {
        if (shard.state != ShardState::kPending) {
          // Just failed: schedule the relaunch.
          const std::uint64_t delay =
              backoff_delay_ms(config.retry, i, shard.failures + 1);
          shard.eligible = Clock::now() + std::chrono::milliseconds(delay);
          shard.state = ShardState::kPending;
        }
        if (Clock::now() >= shard.eligible &&
            active_count() < static_cast<std::size_t>(config.max_parallel)) {
          launch(i, /*speculative=*/false);
        }
        continue;
      }

      // Speculative re-execution of stragglers: one duplicate, launched
      // only when there is spare capacity and budget for another attempt.
      const double threshold = speculate_for(shard);
      if (threshold > 0.0 && shard.attempts.size() == 1 &&
          shard.failures + 1 < config.retry.max_attempts &&
          seconds_since(shard.attempts.front().started) > threshold &&
          active_count() < static_cast<std::size_t>(config.max_parallel)) {
        launch(i, /*speculative=*/true);
      }
    }

    if (all_settled) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // --- merge what we have ---
  OrchestratorReport report;
  report.total_cells = total;
  report.shards.reserve(shards.size());
  std::vector<scenario::Part> parts;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Shard& shard = shards[i];
    ShardOutcome outcome;
    outcome.range = shard.range;
    outcome.done = shard.state == ShardState::kDone;
    outcome.attempts = shard.failures + (outcome.done ? 1 : 0);
    report.shards.push_back(outcome);
    if (outcome.done) {
      parts.push_back(scenario::read_part(parts_dir + "/" + shard.stem + ".csv"));
    }
  }

  // Until a part covers them, every cell is missing.
  std::vector<CellRange> gaps = {{0, total}};
  const std::string out_path =
      config.out_path.value_or(config.workdir + "/merged.csv");
  if (!parts.empty()) {
    scenario::MergedParts merged = scenario::merge_parts(std::move(parts));
    trace::write_csv_file(out_path, merged.table.header, merged.table.rows);
    report.merged_csv = out_path;
    gaps = std::move(merged.missing);
  }
  for (const CellRange& gap : gaps) {
    for (std::size_t c = gap.begin; c < gap.end; ++c) report.missing_cells.push_back(c);
  }

  if (!report.missing_cells.empty()) {
    // Graceful degradation: say EXACTLY what is missing, machine-readably.
    trace::JsonValue missing = trace::JsonValue::array();
    for (const std::size_t cell : report.missing_cells) missing.push_back(cell);
    trace::JsonValue exhausted = trace::JsonValue::array();
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (shards[i].state != ShardState::kDone) exhausted.push_back(i);
    }
    trace::JsonValue doc = trace::JsonValue::object();
    doc["schema"] = 1;
    doc["scenario"] = config.scenario;
    doc["total_cells"] = total;
    doc["missing_cells"] = std::move(missing);
    doc["exhausted_shards"] = std::move(exhausted);
    report.missing_cells_path = config.workdir + "/missing_cells.json";
    trace::write_text_file_atomic(report.missing_cells_path, doc.dump(1) + "\n");
    if (!config.quiet) {
      std::printf("orchestrator: PARTIAL result — %zu/%zu cells merged; see %s\n",
                  total - report.missing_cells.size(), total,
                  report.missing_cells_path.c_str());
    }
    report.exit_code = 3;
    return report;
  }

  if (!config.quiet) {
    std::printf("orchestrator: merged %zu cells from %zu shards into %s\n", total,
                shards.size(), out_path.c_str());
  }
  report.exit_code = 0;
  return report;
}

}  // namespace sss::orchestrator
