#include "serve/loadgen.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <numeric>
#include <stdexcept>

#include "serve/client.hpp"
#include "stats/percentile.hpp"
#include "stats/rng.hpp"
#include "trace/parse.hpp"

namespace sss::serve {

LatencySummary summarize_latencies(std::vector<double> latencies) {
  LatencySummary summary;
  summary.count = latencies.size();
  if (latencies.empty()) return summary;
  summary.mean_s = std::accumulate(latencies.begin(), latencies.end(), 0.0) /
                   static_cast<double>(latencies.size());
  const stats::QuantileSet quantiles(std::move(latencies));
  summary.min_s = quantiles.min();
  summary.p50_s = quantiles.quantile(0.50);
  summary.p90_s = quantiles.quantile(0.90);
  summary.p99_s = quantiles.quantile(0.99);
  summary.p999_s = quantiles.quantile(0.999);
  summary.max_s = quantiles.max();
  return summary;
}

namespace {

struct LoadConnection {
  int fd = -1;
  FrameReader reader;
  std::string out;
  std::size_t out_offset = 0;
  bool want_write = false;
  std::deque<double> scheduled;  // scheduled send time of each in-flight request
};

class Clock {
 public:
  Clock() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

LoadResult run_load(const LoadConfig& config) {
  if (!(config.target_rate > 0.0)) throw std::invalid_argument("target_rate must be > 0");
  if (!(config.duration_s > 0.0)) throw std::invalid_argument("duration_s must be > 0");
  if (config.warmup_s < 0.0 || config.cooldown_s < 0.0 ||
      config.warmup_s + config.cooldown_s >= config.duration_s) {
    throw std::invalid_argument(
        "warmup_s + cooldown_s must leave a positive measurement window");
  }
  if (config.connections < 1) throw std::invalid_argument("connections must be >= 1");

  LoadResult result;
  result.offered_rate = config.target_rate;
  result.duration_s = config.duration_s;
  result.warmup_s = config.warmup_s;
  result.cooldown_s = config.cooldown_s;
  result.measure_window_s = config.duration_s - config.warmup_s - config.cooldown_s;
  result.connections = config.connections;
  result.seed = config.seed;
  const double measure_begin = config.warmup_s;
  const double measure_end = config.duration_s - config.cooldown_s;

  // Encode the request template once; every arrival appends these bytes.
  std::string frame_template;
  append_decide_request(frame_template, config.request);

  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) throw std::runtime_error("loadgen: epoll_create1 failed");

  std::vector<LoadConnection> conns(static_cast<std::size_t>(config.connections));
  try {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      conns[i].fd = connect_tcp(config.host, config.port, /*nonblocking=*/true);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conns[i].fd, &ev) != 0) {
        throw std::runtime_error("loadgen: epoll_ctl failed");
      }
    }
  } catch (...) {
    for (LoadConnection& conn : conns) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    ::close(epoll_fd);
    throw;
  }

  stats::Random rng(config.seed);
  bool generation_seen = false;
  Clock clock;
  // Timestamp of the current drain pass: one clock read per read burst is
  // enough resolution and keeps the hot loop at one vDSO call per batch.
  double pass_now = 0.0;

  auto fail = [&](const std::string& why) -> void {
    for (LoadConnection& conn : conns) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    ::close(epoll_fd);
    throw std::runtime_error("loadgen: " + why);
  };

  auto update_write_interest = [&](std::size_t index) {
    LoadConnection& conn = conns[index];
    const bool pending = conn.out_offset < conn.out.size();
    if (pending == conn.want_write) return;
    conn.want_write = pending;
    epoll_event ev{};
    ev.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<std::uint32_t>(index);
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  };

  auto flush = [&](std::size_t index) -> bool {
    LoadConnection& conn = conns[index];
    while (conn.out_offset < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                               conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_offset += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    if (conn.out_offset == conn.out.size()) {
      conn.out.clear();
      conn.out_offset = 0;
    }
    update_write_interest(index);
    return true;
  };

  auto record_response = [&](const Frame& frame, std::size_t index) -> bool {
    LoadConnection& conn = conns[index];
    if (conn.scheduled.empty()) return false;  // unsolicited frame
    const double scheduled_at = conn.scheduled.front();
    conn.scheduled.pop_front();
    result.responses_total += 1;
    const bool in_window = scheduled_at >= measure_begin && scheduled_at < measure_end;

    const auto type = static_cast<MessageType>(frame.header.type);
    if (type == MessageType::kErrorResponse) {
      result.errors_total += 1;
      return true;
    }
    if (type != MessageType::kDecideResponse) return false;
    const std::optional<DecideResponse> response =
        decode_decide_response(frame.payload, frame.payload_size);
    if (!response.has_value()) return false;
    if (response->status != 0) {
      result.errors_total += 1;
      return true;
    }
    if (!generation_seen) {
      result.generation_min = result.generation_max = response->profile_generation;
      generation_seen = true;
    } else {
      result.generation_min = std::min(result.generation_min, response->profile_generation);
      result.generation_max = std::max(result.generation_max, response->profile_generation);
    }
    if (in_window) {
      result.measured_count += 1;
      switch (response->decision) {
        case WireDecision::kLocal:
          result.decided_local += 1;
          break;
        case WireDecision::kStream:
          result.decided_stream += 1;
          break;
        case WireDecision::kStage:
          result.decided_stage += 1;
          break;
      }
      // Latency from the SCHEDULED time: queueing we induced by falling
      // behind the open-loop schedule is part of the tail, by design.
      result.latencies_s.push_back(pass_now - scheduled_at);
    }
    return true;
  };

  double next_arrival = rng.exponential(config.target_rate);
  std::size_t next_conn = 0;

  auto drain_readable = [&](std::size_t index) -> bool {
    LoadConnection& conn = conns[index];
    char buf[65536];
    while (true) {
      const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        conn.reader.feed(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) return false;  // server closed
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    pass_now = clock.now();
    while (true) {
      const std::optional<Frame> frame = conn.reader.next();
      if (!frame.has_value()) break;
      if (!record_response(*frame, index)) return false;
    }
    return conn.reader.error() == ErrorCode::kNone;
  };

  // --- send + receive loop -------------------------------------------------
  epoll_event events[64];
  while (true) {
    const double now = clock.now();
    const bool sending = next_arrival < config.duration_s;

    // Enqueue every arrival that is due; coalesce into per-conn buffers.
    if (sending && next_arrival <= now) {
      while (next_arrival <= now && next_arrival < config.duration_s) {
        LoadConnection& conn = conns[next_conn];
        conn.out.append(frame_template);
        conn.scheduled.push_back(next_arrival);
        result.scheduled_total += 1;
        next_conn = (next_conn + 1) % conns.size();
        next_arrival += rng.exponential(config.target_rate);
      }
      for (std::size_t i = 0; i < conns.size(); ++i) {
        if (conns[i].out_offset < conns[i].out.size()) {
          if (!flush(i)) fail("connection lost while sending");
        }
      }
    }

    // Done when the send phase is over and nothing is in flight.
    bool in_flight = false;
    for (const LoadConnection& conn : conns) {
      if (!conn.scheduled.empty() || conn.out_offset < conn.out.size()) {
        in_flight = true;
        break;
      }
    }
    if (!sending && !in_flight) break;
    if (!sending && clock.now() > config.duration_s + config.drain_timeout_s) {
      fail("drain timeout: " + std::to_string([&] {
             std::size_t pending = 0;
             for (const LoadConnection& conn : conns) pending += conn.scheduled.size();
             return pending;
           }()) +
           " responses outstanding");
    }

    int timeout_ms;
    if (sending) {
      const double gap_s = next_arrival - clock.now();
      timeout_ms = gap_s <= 0.0 ? 0 : static_cast<int>(gap_s * 1000.0);
    } else {
      timeout_ms = 10;
    }
    const int n = ::epoll_wait(epoll_fd, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(std::string("epoll_wait: ") + std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      const std::size_t index = events[i].data.u32;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        fail("connection reset by server");
      }
      if (events[i].events & EPOLLOUT) {
        if (!flush(index)) fail("connection lost while flushing");
      }
      if (events[i].events & EPOLLIN) {
        if (!drain_readable(index)) fail("server closed or sent a malformed stream");
      }
    }
  }

  for (LoadConnection& conn : conns) ::close(conn.fd);
  ::close(epoll_fd);

  result.achieved_rate = result.measure_window_s > 0.0
                             ? static_cast<double>(result.measured_count) /
                                   result.measure_window_s
                             : 0.0;
  result.rate_ratio =
      result.offered_rate > 0.0 ? result.achieved_rate / result.offered_rate : 0.0;
  result.saturated = result.rate_ratio < 0.95;
  result.latency = summarize_latencies(result.latencies_s);
  return result;
}

trace::JsonValue load_result_json(const LoadResult& result) {
  trace::JsonValue json = trace::JsonValue::object();
  json["format"] = "sss.load-report/1";

  trace::JsonValue config = trace::JsonValue::object();
  config["offered_rate"] = result.offered_rate;
  config["duration_s"] = result.duration_s;
  config["warmup_s"] = result.warmup_s;
  config["cooldown_s"] = result.cooldown_s;
  config["measure_window_s"] = result.measure_window_s;
  config["connections"] = result.connections;
  config["seed"] = trace::JsonValue::from_uint64(result.seed);
  json["config"] = std::move(config);

  trace::JsonValue volume = trace::JsonValue::object();
  volume["scheduled_total"] = result.scheduled_total;
  volume["responses_total"] = result.responses_total;
  volume["errors_total"] = result.errors_total;
  volume["measured_count"] = result.measured_count;
  json["volume"] = std::move(volume);

  trace::JsonValue rate = trace::JsonValue::object();
  rate["achieved"] = result.achieved_rate;
  rate["ratio"] = result.rate_ratio;
  rate["saturated"] = result.saturated;
  json["rate"] = std::move(rate);

  trace::JsonValue decisions = trace::JsonValue::object();
  decisions["local"] = result.decided_local;
  decisions["stream"] = result.decided_stream;
  decisions["stage"] = result.decided_stage;
  json["decisions"] = std::move(decisions);

  trace::JsonValue generation = trace::JsonValue::object();
  generation["min"] = result.generation_min;
  generation["max"] = result.generation_max;
  json["generation"] = std::move(generation);

  trace::JsonValue latency = trace::JsonValue::object();
  latency["count"] = result.latency.count;
  latency["min_s"] = result.latency.min_s;
  latency["mean_s"] = result.latency.mean_s;
  latency["p50_s"] = result.latency.p50_s;
  latency["p90_s"] = result.latency.p90_s;
  latency["p99_s"] = result.latency.p99_s;
  latency["p999_s"] = result.latency.p999_s;
  latency["max_s"] = result.latency.max_s;
  json["latency"] = std::move(latency);
  return json;
}

std::string sweep_csv_header() {
  return "offered_rate,achieved_rate,rate_ratio,saturated,measured_count,errors,"
         "p50_us,p90_us,p99_us,p999_us,max_us\n";
}

std::string sweep_csv_row(const LoadResult& result) {
  char buffer[32];
  std::string row;
  row += trace::format_double_exact(result.offered_rate, buffer);
  row += ',';
  row += trace::format_double_exact(result.achieved_rate, buffer);
  row += ',';
  row += trace::format_double_exact(result.rate_ratio, buffer);
  row += ',';
  row += result.saturated ? "1" : "0";
  row += ',';
  row += std::to_string(result.measured_count);
  row += ',';
  row += std::to_string(result.errors_total);
  for (const double v : {result.latency.p50_s, result.latency.p90_s, result.latency.p99_s,
                         result.latency.p999_s, result.latency.max_s}) {
    row += ',';
    row += trace::format_double_exact(v * 1e6, buffer);
  }
  row += '\n';
  return row;
}

}  // namespace sss::serve
