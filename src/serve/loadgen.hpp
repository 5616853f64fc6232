// loadgen.hpp — open-loop tail-latency measurement for serve endpoints.
//
// The measurement discipline follows mutilate/mutated-style open-loop
// load generation:
//
//   - Arrivals are an exponential (Poisson) process at the OFFERED rate,
//     scheduled independently of the server's progress.  A slow response
//     does not delay the next request; the backlog shows up as latency.
//   - Latency is measured from the request's SCHEDULED send time, not the
//     moment the socket write finally happened — this is what makes the
//     numbers immune to coordinated omission: a stalled server inflates
//     the tail instead of silently thinning the sample.
//   - The first `warmup_s` and last `cooldown_s` of the run are excluded
//     from the sample (connection ramp and drain effects), keyed by the
//     request's scheduled time.
//   - Every measured latency is kept (a full reservoir), so p50/p99/p999
//     are EXACT order statistics (stats/percentile.hpp), not sketch
//     estimates.
//   - The report carries offered vs achieved rate; achieved < 95% of
//     offered flags the run as saturated — the latency numbers then
//     describe an overloaded operating point, which is exactly what a
//     rate sweep wants to show as the curve's knee.
//
// The engine drives many nonblocking connections from one thread with
// epoll, coalescing every due request into one write per connection and
// draining reads in batches — the same syscall-batching discipline as the
// server, which is what lets a single core source >100k req/s.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "trace/json.hpp"

namespace sss::serve {

struct LoadConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double target_rate = 1000.0;  // offered req/s
  double duration_s = 10.0;     // total send window (includes warmup+cooldown)
  double warmup_s = 1.0;
  double cooldown_s = 1.0;
  int connections = 4;
  std::uint64_t seed = 42;
  DecideRequest request;        // the request template every arrival sends
  double drain_timeout_s = 10.0;
};

// Exact order-statistics summary of a latency sample (seconds).
struct LatencySummary {
  std::size_t count = 0;
  double min_s = 0.0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  double p99_s = 0.0;
  double p999_s = 0.0;
  double max_s = 0.0;
};

// Exact percentiles over `latencies` (numpy-linear interpolation, the same
// contract as stats::quantile).  Pinned against an independent reference
// implementation in tests/serve/loadgen_test.cpp.
[[nodiscard]] LatencySummary summarize_latencies(std::vector<double> latencies);

struct LoadResult {
  // Offered side.
  double offered_rate = 0.0;
  double duration_s = 0.0;
  double warmup_s = 0.0;
  double cooldown_s = 0.0;
  double measure_window_s = 0.0;
  int connections = 0;
  std::uint64_t seed = 0;

  // Volume.
  std::uint64_t scheduled_total = 0;  // arrivals generated
  std::uint64_t responses_total = 0;  // responses of any kind received
  std::uint64_t errors_total = 0;     // nonzero-status or error-frame responses
  std::uint64_t measured_count = 0;   // ok responses inside the window

  // The closed-form rate check: achieved = measured_count / window.
  double achieved_rate = 0.0;
  double rate_ratio = 0.0;  // achieved / offered
  bool saturated = false;   // rate_ratio < 0.95

  // Decision mix of measured responses (sanity signal for the profile).
  std::uint64_t decided_local = 0;
  std::uint64_t decided_stream = 0;
  std::uint64_t decided_stage = 0;

  // Snapshot generations observed (hot-reload visibility).
  std::uint64_t generation_min = 0;
  std::uint64_t generation_max = 0;

  LatencySummary latency;          // measured-window ok responses
  std::vector<double> latencies_s; // the full reservoir (measured window)
};

// Run one open-loop measurement.  Throws std::runtime_error on connect
// failure, mid-run connection loss, or a malformed response stream —
// a load test against a dying server is a failed measurement, not data.
[[nodiscard]] LoadResult run_load(const LoadConfig& config);

// Machine-readable report (format "sss.load-report/1"): config echo,
// volume counters, achieved-vs-offered, exact percentiles.  The reservoir
// itself is summarized, not dumped.  The seed is a decimal string
// (JsonValue::from_uint64), so any 64-bit seed reads back exactly.
[[nodiscard]] trace::JsonValue load_result_json(const LoadResult& result);

// One CSV row per rate for the latency-vs-throughput curve; header first.
[[nodiscard]] std::string sweep_csv_header();
[[nodiscard]] std::string sweep_csv_row(const LoadResult& result);

}  // namespace sss::serve
