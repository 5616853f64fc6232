// executor.hpp — parallel sweep execution with deterministic seeding.
//
// A scenario's RunPoints are independent simulations, so the executor fans
// them out over a pipeline::ThreadPool.  Determinism contract: for a given
// (base_seed, runs) the results are BIT-IDENTICAL regardless of thread
// count, because
//   1. every run's 64-bit seed is derived up front, in run order, from the
//      jump sequence of one stats::Xoshiro256 rooted at base_seed
//      (stats::derive_stream_seeds); each run then expands its seed into a
//      fresh generator via SplitMix64, so distinct seeds give decorrelated
//      streams;
//   2. results land in a pre-sized vector at their run index, so output
//      order never depends on completion order;
//   3. run_experiment / run_fluid_experiment are pure functions of their
//      WorkloadConfig.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "scenario/spec.hpp"

namespace sss::obs {
class TimelineRecorder;  // obs/timeline.hpp
}

namespace sss::scenario {

struct SweepOptions {
  // Worker threads; 0 = one per hardware thread, 1 = serial.
  int threads = 0;
  // Base seed for the per-run Xoshiro256 streams.
  std::uint64_t base_seed = 42;
};

class SweepExecutor {
 public:
  explicit SweepExecutor(SweepOptions options = {});

  // Derive the per-run seeds for `runs` (run i gets the i-th value of the
  // jump sequence rooted at base_seed).  Exposed for tests and for callers
  // that want to inspect/replay a single run.
  [[nodiscard]] std::vector<std::uint64_t> derive_seeds(std::size_t count) const;

  // Execute every run and return results in run order.  `runs` are the
  // grid cells starting at GLOBAL index `first`: run i is cell first + i,
  // gets the seed of that cell (when its `reseed` flag is set) and is the
  // index on_run_start and timeline_index refer to, so a slice of a grid
  // runs exactly as those cells do in the whole grid.  Blocks until all
  // complete; the first exception from any run propagates.
  [[nodiscard]] std::vector<simnet::ExperimentResult> execute(
      std::vector<RunPoint> runs, std::size_t first = 0) const;

  // Optional progress hook, invoked from worker threads as each run
  // completes with (completed_count, total).  Must be thread-safe.
  std::function<void(std::size_t, std::size_t)> on_progress;

  // Optional hook invoked on the worker thread right before a run
  // executes, with its GLOBAL cell index.  Must be thread-safe.  The runner
  // wires ScenarioContext::on_cell_start through this for fault injection.
  std::function<void(std::size_t)> on_run_start;

  // Optional timeline attachment: record the run whose GLOBAL cell index
  // is `timeline_index` into `timeline` (nothing when it is outside the
  // runs passed to execute).  Exactly one cell is recorded, and that cell
  // executes on exactly one worker thread, so the recorder's contents are
  // bit-identical at any thread count.  The packet substrate records live
  // (per-flow phases, per-hop counters); the fluid substrate synthesizes
  // client spans from its results.
  obs::TimelineRecorder* timeline = nullptr;
  std::size_t timeline_index = 0;

  // Threads the executor will actually use for `run_count` runs.
  [[nodiscard]] int effective_threads(std::size_t run_count) const;

  // Host wall time of each run from the latest execute(), in ms, indexed
  // like its results.  This is the "timing" half of the run manifest
  // (obs/manifest.hpp) — host-dependent by nature, never compared exactly.
  [[nodiscard]] const std::vector<double>& last_cell_wall_ms() const {
    return wall_ms_;
  }

 private:
  SweepOptions options_;
  mutable std::vector<double> wall_ms_;
};

}  // namespace sss::scenario
