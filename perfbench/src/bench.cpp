#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

const SteadyClock::time_point kOrigin = SteadyClock::now();

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// The per-layer schema (BENCHMARK.json "per_layer"), in report order.
const Metric kPerLayer[] = {
    {"sweep.wall_s", 0, "s"},              {"sweep.wall_1t_s", 0, "s"},
    {"orch.wall_s", 0, "s"},               {"serve.batch_wall_s", 0, "s"},
    {"serve.p50_us.r100k", 0, "us"},       {"serve.p99_us.r100k", 0, "us"},
    {"serve.p50_us.r800k", 0, "us"},       {"serve.p99_us.r800k", 0, "us"},
    {"serve.knee_kreqs", 0, "kreq/s"},
    {"scenario.expand_ms", 0, "ms"},       {"scenario.render_ms", 0, "ms"},
    {"executor.cell_ms.p50", 0, "ms"},     {"executor.cell_ms.max", 0, "ms"},
    {"executor.imbalance", 0, "ratio"},    {"workload.prepare_ms", 0, "ms"},
    {"workload.drive_ms", 0, "ms"},        {"workload.finish_ms", 0, "ms"},
    {"sim.events", 0, "count"},            {"sim.ns_per_event", 0, "ns"},
    {"sim.queue_high_water", 0, "count"},  {"sim.arena_mb", 0, "MB"},
    {"net.packets_forwarded", 0, "count"}, {"net.packets_dropped", 0, "count"},
    {"net.retransmits", 0, "count"},       {"net.rto_events", 0, "count"},
    {"net.delivered_ratio", 0, "ratio"},   {"sched.clients_admitted", 0, "count"},
    {"sched.mean_queue_wait_s", 0, "sim_s"}, {"sched.max_queue_wait_s", 0, "sim_s"},
    {"orch.attempts_per_shard", 0, "ratio"}, {"orch.merge_ms", 0, "ms"},
    {"serve.load_profiles_ms", 0, "ms"},   {"serve.start_ms", 0, "ms"},
    {"serve.decide_ns.p50", 0, "ns"},      {"serve.decide_ns.p99", 0, "ns"},
    {"codec.encode_ns", 0, "ns"},          {"codec.decode_ns", 0, "ns"},
    {"gen.frames_per_write", 0, "ratio"},  {"gen.responses_per_read", 0, "ratio"},
    {"gen.lateness_us.p50", 0, "us"},      {"gen.lateness_us.p99", 0, "us"},
    {"server.requests", 0, "count"},       {"server.request_errors", 0, "count"},
    {"server.protocol_errors", 0, "count"}, {"server.worker_skew", 0, "ratio"},
    {"trace.overhead_ms", 0, "ms"},        {"trace.spans", 0, "count"},
    {"self_ms.scenario", 0, "ms"},         {"self_ms.executor", 0, "ms"},
    {"self_ms.simnet", 0, "ms"},           {"self_ms.orchestrator", 0, "ms"},
    {"self_ms.serve", 0, "ms"},            {"self_ms.codec", 0, "ms"},
    {"self_ms.gen", 0, "ms"},
};

}  // namespace

void complete_per_layer(RunResult& result) {
  std::vector<Metric> ordered;
  for (const Metric& schema : kPerLayer) {
    Metric metric = schema;
    for (const Metric& measured : result.metrics) {
      if (measured.name == schema.name) metric = measured;
    }
    ordered.push_back(metric);
  }
  result.metrics = std::move(ordered);
}

double now_s() {
  return std::chrono::duration<double>(SteadyClock::now() - kOrigin).count();
}

bool round_fits(double round_start_s, double deadline_s) {
  const double now = now_s();
  return now + (now - round_start_s) <= deadline_s;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

int SpanRecorder::begin(std::string name, std::string layer, int parent, int cell) {
  Span span{std::move(name), std::move(layer), now_s(), 0.0, parent, cell};
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int index) {
  const double t = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_s = t;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double SpanRecorder::self_ms(const std::string& layer) const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& span : all) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_s, span.end_s);
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].layer != layer) continue;
    // Children of a fan-out span run in parallel: subtract their union.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    for (const auto& [start, end] : kids) {
      if (start > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    total += (all[i].end_s - all[i].start_s) - covered;
  }
  return total * 1e3;
}

std::string SpanRecorder::to_json() const {
  std::string out = "[";
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,\"cell\":%d}",
                  s.start_s * 1e6, s.end_s * 1e6, s.parent, s.cell);
    out += i == 0 ? "\n" : ",\n";
    out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + json_escape(s.name) +
           "\",\"layer\":\"" + json_escape(s.layer) + "\"," + buf;
  }
  out += "\n]";
  return out;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name, std::string layer,
                       int parent, int cell)
    : recorder_(recorder) {
  if (recorder_ != nullptr) index_ = recorder_->begin(std::move(name), std::move(layer), parent, cell);
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) recorder_->end(index_);
}

}  // namespace perfbench
