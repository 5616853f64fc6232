// bench.hpp — the benchmark's own instruments: clock, percentiles, metric
// table, in-memory span recorder, and the run result every workload returns.
//
// Nothing here calls into the library under measurement: percentiles use
// this file's own sort, spans use steady_clock directly, and the metric
// table is plain data.  A later rewrite of the library's stats or obs layers
// therefore cannot move the ruler.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

// Seconds since a fixed process-wide origin.
[[nodiscard]] double now_s();

// True while one more round, as long as the one that began at
// `round_start_s`, still ends before `deadline_s`.
[[nodiscard]] bool round_fits(double round_start_s, double deadline_s);

// Linear-interpolation percentile (q in [0, 1]) of `values`; sorts a copy.
// 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// CPU seconds used so far by this process (every thread, exited ones too)
// and by the calling thread.  The kernel leaves out time the hypervisor
// stole from the vCPU, so on a busy shared host these move far less than
// wall time does.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One span around a call into a layer.  `parent` indexes the recorder's
// span list (-1 = root); `cell` is the sweep cell or -1.
struct Span {
  std::string name;
  std::string layer;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  int cell = -1;
};

// Spans kept in memory for the whole run and written out at the end.
// Thread-safe: sweep cells record from worker threads.
class SpanRecorder {
 public:
  // Open a span and return its index; close it with end().
  int begin(std::string name, std::string layer, int parent = -1, int cell = -1);
  void end(int index);

  [[nodiscard]] std::vector<Span> spans() const;
  // Per-layer self time in ms: each span's duration minus the part of it
  // its children cover, summed by layer.
  [[nodiscard]] double self_ms(const std::string& layer) const;
  // JSON array of every span (times in microseconds from the run origin).
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::string layer, int parent = -1,
             int cell = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int index_ = -1;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;       // scratch space inside the checkout
  std::string reference_dir;  // committed reference outputs
  std::string runner;         // scenario_runner binary for orchestrated sweeps
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string spans_json = "[]";

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Put the traced run's metrics in the per-layer schema's order, adding 0
// for each metric of a layer the workload does not exercise.
void complete_per_layer(RunResult& result);

// The default seed, at which sweep rows must also equal the committed
// reference tables.
inline constexpr std::uint64_t kReferenceSeed = 42;

[[nodiscard]] RunResult run_sweep_workload(const RunOptions& options);
[[nodiscard]] RunResult run_serve_workload(const RunOptions& options);

}  // namespace perfbench
