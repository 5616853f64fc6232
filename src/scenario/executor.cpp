#include "scenario/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>

#include "obs/timeline.hpp"
#include "pipeline/thread_pool.hpp"
#include "stats/rng.hpp"

namespace sss::scenario {

namespace {

simnet::ExperimentResult execute_one(const RunPoint& run,
                                     obs::TimelineRecorder* timeline) {
  switch (run.substrate) {
    case Substrate::kFluid: {
      simnet::ExperimentResult result = simnet::run_fluid_experiment(run.config);
      if (timeline != nullptr) {
        // The fluid substrate has no packet events to sample, so its
        // timeline is synthesized from the result records: the spawn/drain
        // window plus one transfer span per client.
        obs::TimelineRecorder& rec = *timeline;
        const int workload = rec.add_track("workload (fluid)");
        const auto spawn_end =
            static_cast<std::int64_t>(run.config.duration.seconds() * 1e9 + 0.5);
        rec.complete_span(workload, "spawn-window", 0, spawn_end);
        const auto sim_end = static_cast<std::int64_t>(result.sim_duration_s * 1e9 + 0.5);
        if (sim_end > spawn_end) rec.complete_span(workload, "drain", spawn_end, sim_end);
        for (const simnet::ClientRecord& client : result.metrics.clients) {
          const int track = rec.add_track("client " + std::to_string(client.client_id));
          rec.complete_span(track,
                            client.censored ? "transfer (censored)" : "transfer",
                            static_cast<std::int64_t>(client.start_s * 1e9 + 0.5),
                            static_cast<std::int64_t>(client.end_s * 1e9 + 0.5));
        }
      }
      return result;
    }
    case Substrate::kPacket:
      break;
  }
  if (timeline != nullptr) {
    simnet::TimelineProbe probe;
    probe.recorder = timeline;
    return simnet::run_experiment(run.config, probe);
  }
  return simnet::run_experiment(run.config);
}

}  // namespace

SweepExecutor::SweepExecutor(SweepOptions options) : options_(options) {}

std::vector<std::uint64_t> SweepExecutor::derive_seeds(std::size_t count) const {
  return stats::derive_stream_seeds(options_.base_seed, count);
}

int SweepExecutor::effective_threads(std::size_t run_count) const {
  int threads = options_.threads;
  if (threads <= 0) threads = static_cast<int>(pipeline::ThreadPool::default_thread_count());
  return std::max(1, std::min<int>(threads, static_cast<int>(std::max<std::size_t>(run_count, 1))));
}

std::vector<simnet::ExperimentResult> SweepExecutor::execute(std::vector<RunPoint> runs,
                                                             std::size_t first) const {
  const std::vector<std::uint64_t> seeds = derive_seeds(first + runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].reseed) runs[i].config.seed = seeds[first + i];
  }

  std::vector<simnet::ExperimentResult> results(runs.size());
  wall_ms_.assign(runs.size(), 0.0);
  const int threads = effective_threads(runs.size());
  std::atomic<std::size_t> completed{0};
  auto run_index = [&](std::size_t i) {
    if (on_run_start) on_run_start(first + i);
    obs::TimelineRecorder* recorder =
        (timeline != nullptr && first + i == timeline_index) ? timeline : nullptr;
    const auto t0 = std::chrono::steady_clock::now();
    results[i] = execute_one(runs[i], recorder);
    wall_ms_[i] =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    if (on_progress) on_progress(completed.fetch_add(1) + 1, runs.size());
  };

  if (threads == 1 || runs.size() <= 1) {
    for (std::size_t i = 0; i < runs.size(); ++i) run_index(i);
  } else {
    pipeline::ThreadPool pool(static_cast<std::size_t>(threads),
                              std::max<std::size_t>(runs.size(), 64));
    pool.parallel_for(0, runs.size(), run_index);
  }
  return results;
}

}  // namespace sss::scenario
