// supervisor.hpp — the fault-tolerant sweep orchestrator.
//
// `orchestrate` decomposes one scenario's grid into contiguous shard
// ranges (equal blocks, or cost-weighted when a prior run's metrics
// manifest is supplied), launches `scenario_runner --cells A:B` workers —
// local subprocesses, or a user command template for ssh/batch backends —
// and drives every shard through a small state machine:
//
//   pending --launch--> running --valid artifact--> done
//      ^                  | crash / bad exit / timeout / invalid artifact
//      |                  v
//      +---backoff--- failed --attempts exhausted--> exhausted
//
// Robustness decisions, each load-bearing:
//   - every attempt writes into its own directory and is promoted into
//     parts/ by rename only after validation (scenario::read_part, the
//     check `--merge` applies to each input: header, row count against the
//     range, row widths; and the manifest agrees on scenario/seed/scale/
//     cells) — a crashed or lying worker can never contribute bytes to the
//     merge;
//   - per-shard deadlines come from --timeout-s, or are derived per shard
//     from a cost manifest (4x the estimated wall time, at least 10 s;
//     kTimeoutFactor and kTimeoutFloorS in supervisor.cpp), so a hung
//     worker is killed and retried instead of stalling the sweep;
//   - stragglers can be speculatively re-executed: past a threshold
//     (--speculate-after-s, or 3x the estimate, kSpeculateFactor) a
//     duplicate attempt races the original, first VALID completion wins
//     and the loser is killed — cells are bit-deterministic, so the two
//     can never disagree;
//   - every transition is journaled to the work ledger BEFORE it is acted
//     on, so a killed orchestrator resumes (--resume) without recomputing
//     finished shards;
//   - when a shard exhausts its retry budget the sweep degrades
//     gracefully: the surviving shards are merged into a partial CSV and
//     a machine-readable missing_cells.json names exactly what is absent
//     (exit code 3, distinct from hard failures).
//
// The final merge re-reads every promoted part through read_part and joins
// them with scenario::merge_parts, as `--merge` does, in range order; the
// cells no part covers are what missing_cells.json names.  When every shard
// succeeded the result is byte-identical to the unsharded run — the
// determinism contract tests/orchestrator/supervisor_test.cpp pins.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "orchestrator/backoff.hpp"
#include "orchestrator/partition.hpp"

namespace sss::orchestrator {

struct OrchestratorConfig {
  // --- what to run ---
  std::string scenario;          // registered scenario name (declarative output)
  double scale = 1.0;            // forwarded as --scale
  std::uint64_t seed = 42;       // forwarded as --seed
  int threads_per_worker = 1;    // forwarded as --threads
  std::vector<std::string> params;       // forwarded as --param k=v each
  std::vector<std::string> worker_args;  // extra argv appended verbatim

  // --- how to split it ---
  int shards = 2;
  // Path to a merged metrics manifest from a prior run; when set the shard
  // boundaries follow measured per-cell wall times (partition_weighted)
  // instead of equal cell counts.
  std::optional<std::string> cost_model_path;

  // --- how to launch workers ---
  std::string runner;   // path to the scenario_runner binary
  std::string workdir;  // attempt sandboxes, ledger, logs, merged output
  // Command template for remote/batch backends; {command} {begin} {end}
  // {shard} are substituted and the result runs under `/bin/sh -c`.
  // Empty = local fork/exec of the runner.
  std::optional<std::string> command_template;
  int max_parallel = 2;  // concurrently running attempts

  // --- robustness knobs ---
  RetryPolicy retry;
  // Hard per-attempt deadline in seconds; 0 = derive from the cost model
  // (4x the estimated shard seconds, at least 10 s) when one is set,
  // otherwise no deadline.
  double timeout_s = 0.0;
  // Speculative re-execution threshold in seconds; 0 = derive from the
  // cost model (3x the estimate) when set, otherwise off.
  double speculate_after_s = 0.0;

  // --- bookkeeping ---
  bool resume = false;  // continue an existing workdir ledger
  // Merged CSV destination; default <workdir>/merged.csv.
  std::optional<std::string> out_path;
  bool quiet = false;
};

struct ShardOutcome {
  CellRange range;
  bool done = false;
  int attempts = 0;  // attempts actually launched this run + replayed failures
};

struct OrchestratorReport {
  // 0 = full merge; 3 = partial merge (some shards exhausted); other
  // non-zero = hard failure before/during the merge.
  int exit_code = 1;
  std::string merged_csv;          // written path (full or partial merge)
  std::string missing_cells_path;  // written when any shard exhausted
  std::size_t total_cells = 0;
  std::vector<ShardOutcome> shards;
  std::vector<std::size_t> missing_cells;  // global indices not in the merge
};

// Run the whole orchestration; never throws for worker-level failures
// (those are the state machine's job), throws std::invalid_argument /
// std::runtime_error for configuration errors (unknown scenario, bad
// workdir, mismatched resume ledger).
[[nodiscard]] OrchestratorReport orchestrate(const OrchestratorConfig& config);

}  // namespace sss::orchestrator
