// serve_workload.cpp — the decide_open_loop workload.
//
// An in-process DecideServer (2 workers, loopback) driven by the
// benchmark's own single-threaded generator over 4 connections.  Requests
// come from a seeded mix over two facility profiles calibrated at set-up
// from the built-in demo trace (the bytes of the committed calibration
// trace): sizes 64 MB - 8 GB, path_hops 1-4, utilizations that include
// out-of-range (clamped) values, and about 1 % unknown-facility requests,
// whose kUnknownFacility replies are expected.  Every reply is compared
// byte for byte with serve::decide on the server's own snapshot of the
// generation the reply names.
//
// Batch jobs keep a fixed window of requests in flight per connection; the
// untraced run reports the CPU seconds the server side spent on each, which
// a busy shared host disturbs far less than wall time or latency.  Open-loop
// steps (traced run) send on a Poisson schedule regardless of replies, and a
// request's latency runs from its scheduled send time.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/fitting.hpp"
#include "serve/decide.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "trace/json.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using sss::serve::DecideRequest;
using sss::serve::DecideResponse;
using sss::serve::DecideServer;

constexpr int kWorkers = 2;
constexpr int kConnections = 4;
constexpr std::size_t kMixSize = 4096;
// Offered rates (req/s) of the doubling ladder; the light and heavy
// operating points are two of its steps.  The top step is past the
// server's capacity, so the latency limit is always crossed on the ladder.
constexpr double kLadder[] = {100e3, 200e3, 400e3, 800e3, 1.6e6, 3.2e6, 6.4e6};
constexpr double kLightRate = 100e3;
constexpr double kHeavyRate = 800e3;
// Open-loop windows per ladder step per round, and their length.  Latency
// figures are medians over all windows of each window's own percentile:
// windows are short, so a host stall spoils few of them.
constexpr int kWindowsPerStep = 4;
constexpr double kWindowSeconds = 0.02;
constexpr double kKneeP99Us = 1000.0;
// A step whose backlog passes this many requests is overloaded: it stops
// sending and fails the latency limit.
constexpr std::size_t kMaxBacklog = 100000;
constexpr std::size_t kBatchRequests = 1 << 16;
constexpr std::size_t kBatchWindow = 128;  // requests per burst on a connection
constexpr double kDrainTimeoutSeconds = 30.0;
const char* const kFacilities[] = {"aps", "lcls"};

// Two facility profiles from the demo calibration campaign, differing in
// operating point and local compute, written as calibrate --out-dir does.
void build_profiles(const std::string& dir) {
  fs::create_directories(dir);
  const std::vector<sss::core::TransferRecord> trace = sss::core::demo_transfer_trace();
  for (const char* facility : kFacilities) {
    sss::core::TraceCalibrationOptions options;
    if (std::string(facility) == "lcls") {
      options.operating_utilization = 0.5;
      options.r_local = sss::units::FlopsRate::teraflops(0.5);
    }
    sss::trace::JsonValue report =
        sss::core::calibration_report_json(sss::core::calibrate_transfer_trace(trace, options));
    report["facility"] = facility;
    std::ofstream(dir + "/" + facility + ".json") << report.dump(2) << "\n";
  }
}

struct Mix {
  std::vector<DecideRequest> requests;
  std::vector<std::string> frames;  // each request pre-encoded
};

Mix make_mix(std::uint64_t seed) {
  Mix mix;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::size_t unknown = 0;
  for (std::size_t i = 0; i < kMixSize; ++i) {
    DecideRequest request;
    if (unit(rng) < 0.01) {
      request.facility = "unknown-site";
      ++unknown;
    } else {
      request.facility = kFacilities[rng() % std::size(kFacilities)];
    }
    request.transfer_size_bytes = static_cast<std::uint64_t>(
        std::exp(std::log(64e6) + unit(rng) * (std::log(8e9) - std::log(64e6))));
    request.path_hops = 1 + static_cast<std::uint32_t>(rng() % 4);
    // One in ten asks for the profile's own operating point; the rest spread
    // past both ends of the calibrated range, where decide() clamps.
    request.operating_utilization = unit(rng) < 0.1 ? 0.0 : 0.02 + 1.18 * unit(rng);
    mix.requests.push_back(request);
  }
  if (unknown == 0) mix.requests[kMixSize / 2].facility = "unknown-site";
  for (const DecideRequest& request : mix.requests) {
    std::string frame;
    sss::serve::append_decide_request(frame, request);
    mix.frames.push_back(std::move(frame));
  }
  return mix;
}

// serve::decide on the server's own snapshot, encoded, per generation.
class Reference {
 public:
  Reference(const DecideServer& server, const Mix& mix) : server_(server), mix_(mix) {}

  // Expected response frame payloads for generation `generation`; empty
  // when the server's current snapshot is not that generation.  Only the
  // two newest tables are kept: a reply names the generation before a
  // reload or the one after it.
  const std::vector<std::string>& payloads(std::uint64_t generation) {
    auto it = tables_.find(generation);
    if (it != tables_.end()) return it->second;
    if (tables_.size() >= 2) tables_.erase(tables_.begin());
    const auto snapshot = server_.registry().snapshot();
    std::vector<std::string> table;
    if (snapshot->generation() == generation) {
      for (const DecideRequest& request : mix_.requests) {
        std::string frame;
        sss::serve::append_decide_response(frame, sss::serve::decide(*snapshot, request));
        table.push_back(frame.substr(sss::serve::kHeaderSize));
      }
    }
    return tables_.emplace(generation, std::move(table)).first->second;
  }

 private:
  const DecideServer& server_;
  const Mix& mix_;
  std::map<std::uint64_t, std::vector<std::string>> tables_;
};

// Restrict the calling thread to CPUs [first, last]; threads it starts
// afterwards inherit the set.  False when the host has too few CPUs.
bool pin_current_thread(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu <= last; ++cpu) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

int connect_loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("connect: ") + std::strerror(err));
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

struct StepResult {
  std::vector<double> latency_s;  // every correct reply
  bool overloaded = false;
};

// Counters of the generator's own work (the traced run reports them).
struct GenCounters {
  std::uint64_t writes = 0;
  std::uint64_t frames_written = 0;
  std::uint64_t reads = 0;
  std::uint64_t responses = 0;
  std::vector<double> lateness_s;
};

// The benchmark's single-threaded client: nonblocking connections, one
// epoll set, every due request coalesced into one write per connection.
class Generator {
 public:
  Generator(std::uint16_t port, const Mix& mix, Reference& reference)
      : mix_(mix), reference_(reference), epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
    for (int i = 0; i < kConnections; ++i) {
      Connection conn;
      try {
        conn.fd = connect_loopback(port);
      } catch (...) {
        close_all();
        throw;
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev);
      conns_.push_back(std::move(conn));
    }
  }
  ~Generator() { close_all(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t unknown_replies = 0;
  GenCounters counters;
  SpanRecorder* recorder = nullptr;  // spans around codec calls when set
  int parent_span = -1;
  bool track_lateness = false;  // keep every send's lateness (traced run)

  // One open-loop step at `rate` req/s for `seconds`.
  StepResult open_loop(double rate, double seconds, std::mt19937_64& rng) {
    StepResult step;
    step.latency_s.reserve(static_cast<std::size_t>(rate * seconds * 1.05) + 16);
    std::exponential_distribution<double> gap(rate);
    std::uniform_int_distribution<std::size_t> pick(0, kMixSize - 1);
    const double t0 = now_s();
    const double send_end = t0 + seconds;
    double next = t0 + gap(rng);
    std::size_t rr = 0;
    while (true) {
      const double now = now_s();
      const bool sending = next < send_end && !step.overloaded;
      if (sending && next <= now) {
        while (next <= now && next < send_end) {
          Connection& conn = conns_[rr];
          rr = (rr + 1) % conns_.size();
          const std::size_t k = pick(rng);
          conn.out.append(mix_.frames[k]);
          conn.inflight.push_back({static_cast<std::uint32_t>(k), next});
          if (track_lateness) counters.lateness_s.push_back(now - next);
          ++outstanding_;
          next += gap(rng);
        }
        if (outstanding_ > kMaxBacklog) step.overloaded = true;
      }
      flush_all();
      if (!sending && outstanding_ == 0) break;
      if (now > send_end + kDrainTimeoutSeconds) throw std::runtime_error("drain timeout");
      int timeout_ms = 0;
      if (!sending) {
        timeout_ms = 1;
      } else if (next - now > 2e-3) {
        timeout_ms = static_cast<int>((next - now) * 1e3) - 1;
      }
      poll(timeout_ms, [&](const Inflight& request, double at) {
        step.latency_s.push_back(at - request.scheduled_s);
      });
    }
    return step;
  }

  // A closed batch of `kBatchRequests` requests over every connection in
  // lock-step bursts: each connection sends `kBatchWindow` requests in one
  // write and waits for every reply before its next burst, so the server
  // meets the same bursts whatever the host's timing.  `midpoint`
  // (optional) runs on its own thread once half the batch is sent.
  // Returns wall s.
  double batch(const std::function<void()>& midpoint) {
    constexpr std::size_t count = kBatchRequests;
    const double t0 = now_s();
    std::size_t sent = 0;
    std::size_t next_mix = 0;
    std::exception_ptr side_error;
    std::jthread side;  // joined on every exit path, before side_error dies
    while (sent < count || outstanding_ > 0) {
      for (Connection& conn : conns_) {
        if (!conn.inflight.empty() || sent == count) continue;
        for (std::size_t burst = 0; burst < kBatchWindow && sent < count; ++burst) {
          const std::size_t k = next_mix;
          next_mix = (next_mix + 1) % kMixSize;
          conn.out.append(mix_.frames[k]);
          conn.inflight.push_back({static_cast<std::uint32_t>(k), 0.0});
          ++outstanding_;
          ++sent;
        }
      }
      if (midpoint && !side.joinable() && sent >= count / 2) {
        side = std::jthread([&midpoint, &side_error] {
          try {
            midpoint();
          } catch (...) {
            side_error = std::current_exception();
          }
        });
      }
      flush_all();
      if (now_s() > t0 + kDrainTimeoutSeconds) throw std::runtime_error("batch timeout");
      poll(0, [](const Inflight&, double) {});
    }
    const double wall = now_s() - t0;
    if (side.joinable()) side.join();
    if (side_error) std::rethrow_exception(side_error);
    return wall;
  }

 private:
  struct Inflight {
    std::uint32_t mix_index = 0;
    double scheduled_s = 0.0;
  };
  struct Connection {
    int fd = -1;
    sss::serve::FrameReader reader;
    std::string out;
    std::size_t out_offset = 0;
    std::deque<Inflight> inflight;
  };

  void close_all() {
    for (Connection& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
      conn.fd = -1;
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;
  }

  void flush_all() {
    for (Connection& conn : conns_) {
      if (conn.out_offset == conn.out.size()) continue;
      const ScopedSpan span(recorder, "gen.write", "gen", parent_span);
      const std::size_t pending = conn.out.size() - conn.out_offset;
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset, pending, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      ++counters.writes;
      counters.frames_written += static_cast<std::size_t>(n) / mix_.frames[0].size();
      conn.out_offset += static_cast<std::size_t>(n);
      if (conn.out_offset == conn.out.size()) {
        conn.out.clear();
        conn.out_offset = 0;
      }
    }
  }

  template <typename OnReply>
  void poll(int timeout_ms, OnReply&& on_reply) {
    epoll_event events[kConnections];
    const int n = ::epoll_wait(epoll_fd_, events, kConnections, timeout_ms);
    if (n < 0 && errno != EINTR) throw std::runtime_error("epoll_wait failed");
    for (int i = 0; i < n; ++i) {
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        throw std::runtime_error("connection closed by the server");
      }
      read_connection(conns_[events[i].data.u32], on_reply);
    }
  }

  template <typename OnReply>
  void read_connection(Connection& conn, OnReply&& on_reply) {
    char buf[65536];
    while (true) {
      const ssize_t n = ::read(conn.fd, buf, sizeof buf);
      if (n > 0) {
        ++counters.reads;
        conn.reader.feed(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) break;
        continue;
      }
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno != EINTR) throw std::runtime_error(std::string("read: ") + std::strerror(errno));
    }
    const double at = now_s();
    const ScopedSpan span(recorder, "codec.decode", "codec", parent_span);
    while (const std::optional<sss::serve::Frame> frame = conn.reader.next()) {
      if (conn.inflight.empty()) throw std::runtime_error("unsolicited reply");
      const Inflight request = conn.inflight.front();
      conn.inflight.pop_front();
      --outstanding_;
      ++counters.responses;
      ++attempted;
      if (check(*frame, request.mix_index)) {
        on_reply(request, at);
      } else {
        ++failed;
      }
    }
    if (conn.reader.error() != sss::serve::ErrorCode::kNone) {
      throw std::runtime_error("malformed reply stream");
    }
  }

  bool check(const sss::serve::Frame& frame, std::uint32_t mix_index) {
    if (frame.header.type != static_cast<std::uint16_t>(sss::serve::MessageType::kDecideResponse)) {
      return false;
    }
    const std::optional<DecideResponse> response =
        sss::serve::decode_decide_response(frame.payload, frame.payload_size);
    if (!response.has_value()) return false;
    const std::vector<std::string>& expected = reference_.payloads(response->profile_generation);
    if (expected.empty()) return false;
    const std::string& want = expected[mix_index];
    if (want.size() != frame.payload_size ||
        std::memcmp(want.data(), frame.payload, want.size()) != 0) {
      return false;
    }
    if (response->status == static_cast<std::uint32_t>(sss::serve::ErrorCode::kUnknownFacility)) {
      ++unknown_replies;
    }
    return true;
  }

  const Mix& mix_;
  Reference& reference_;
  int epoll_fd_ = -1;
  std::vector<Connection> conns_;
  std::size_t outstanding_ = 0;
};

// A started server plus its connected generator: what set-up produces.
struct Service {
  std::unique_ptr<DecideServer> server;
  std::unique_ptr<Reference> reference;
  std::unique_ptr<Generator> generator;

  ~Service() {
    generator.reset();
    if (server) server->stop();
  }
};

struct SetupTimes {
  double cpu_s = 0.0;  // every thread of the process, set-up only
  double load_ms = 0.0;
  double start_ms = 0.0;
};

std::unique_ptr<Service> set_up(const std::string& dir, const Mix& mix, SpanRecorder* recorder,
                                SetupTimes& times) {
  const double c0 = process_cpu_s();
  const ScopedSpan root(recorder, "serve.setup", "bench");
  {
    const ScopedSpan span(recorder, "core.build_profiles", "core", root.index());
    build_profiles(dir);
  }
  const double t1 = now_s();
  {
    const ScopedSpan span(recorder, "serve.load_profile_dir", "serve", root.index());
    if (sss::serve::load_profile_dir(dir).size() != std::size(kFacilities)) {
      throw std::runtime_error("profile directory did not load every facility");
    }
  }
  const double t2 = now_s();
  auto service = std::make_unique<Service>();
  sss::serve::ServerConfig config;
  config.workers = kWorkers;
  config.profile_dir = dir;
  service->server = std::make_unique<DecideServer>(config);
  // The server's threads get CPUs 1..3 and the spinning generator CPU 0,
  // as if the load came from another host.
  const bool pinned = pin_current_thread(1, kConnections - 1);
  {
    const ScopedSpan span(recorder, "serve.start", "serve", root.index());
    service->server->start();
  }
  if (pinned) (void)pin_current_thread(0, 0);
  const double t3 = now_s();
  service->reference = std::make_unique<Reference>(*service->server, mix);
  {
    const ScopedSpan span(recorder, "gen.connect", "gen", root.index());
    service->generator =
        std::make_unique<Generator>(service->server->port(), mix, *service->reference);
  }
  times.cpu_s = process_cpu_s() - c0;
  times.load_ms = (t2 - t1) * 1e3;
  times.start_ms = (t3 - t2) * 1e3;
  return service;
}

// Per-call cost of the codec and of decide() on the live snapshot, timed
// in-process over the same mix.
struct InProcessCosts {
  std::vector<double> decide_ns;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};

InProcessCosts time_in_process(const DecideServer& server, const Mix& mix,
                               SpanRecorder& recorder) {
  InProcessCosts costs;
  constexpr std::size_t kCalls = 1 << 17;
  const auto snapshot = server.registry().snapshot();
  {
    const ScopedSpan span(&recorder, "serve.decide", "serve");
    costs.decide_ns.reserve(kCalls);
    volatile double sink = 0.0;  // keeps every decision observable
    for (std::size_t i = 0; i < kCalls; ++i) {
      const auto t0 = SteadyClock::now();
      const DecideResponse response = sss::serve::decide(*snapshot, mix.requests[i % kMixSize]);
      const auto t1 = SteadyClock::now();
      sink = sink + response.t_stream_s + response.t_stage_s + response.sss + response.status;
      costs.decide_ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
  }
  {
    const ScopedSpan span(&recorder, "codec.encode", "codec");
    std::string out;
    out.reserve(1024 * mix.frames[0].size());
    const double t0 = now_s();
    for (std::size_t i = 0; i < kCalls; ++i) {
      if (i % 1024 == 0) out.clear();
      sss::serve::append_decide_request(out, mix.requests[i % kMixSize]);
    }
    costs.encode_ns = (now_s() - t0) * 1e9 / kCalls;
    if (out.empty()) throw std::runtime_error("codec encode wrote nothing");
  }
  {
    // Reply frames fed 1024 at a time through a FrameReader and decoded.
    std::string frames;
    for (std::size_t i = 0; i < 1024; ++i) {
      sss::serve::append_decide_response(frames,
                                         sss::serve::decide(*snapshot, mix.requests[i]));
    }
    const ScopedSpan span(&recorder, "codec.decode", "codec");
    std::uint64_t decoded = 0;
    const double t0 = now_s();
    for (std::size_t batch = 0; batch < kCalls / 1024; ++batch) {
      sss::serve::FrameReader reader;
      reader.feed(frames.data(), frames.size());
      while (const auto frame = reader.next()) {
        decoded += sss::serve::decode_decide_response(frame->payload, frame->payload_size)
                       .has_value();
      }
    }
    costs.decode_ns = (now_s() - t0) * 1e9 / kCalls;
    if (decoded != kCalls) throw std::runtime_error("codec decode lost frames");
  }
  return costs;
}

// CPU seconds the server side spent while `job` ran on the calling thread:
// the whole process's less the caller's own (the generator's).
template <typename Job>
double server_cpu_s(Job&& job) {
  const double process0 = process_cpu_s();
  const double caller0 = thread_cpu_s();
  job();
  return (process_cpu_s() - process0) - (thread_cpu_s() - caller0);
}

// The offered rate at which the ladder's median window p99 first crosses
// the latency limit, interpolated log-log between the last step under the
// limit and the first step over it (the lowest step when none is under).
double knee_rate(const std::vector<double>& p99_us) {
  std::size_t over = 0;
  while (over < p99_us.size() && p99_us[over] <= kKneeP99Us) ++over;
  if (over == p99_us.size()) return kLadder[over - 1];
  if (over == 0) return kLadder[0];
  const double lo = std::log(p99_us[over - 1]);
  const double hi = std::log(p99_us[over]);
  const double frac = hi > lo ? (std::log(kKneeP99Us) - lo) / (hi - lo) : 0.0;
  return kLadder[over - 1] * std::pow(kLadder[over] / kLadder[over - 1], frac);
}

}  // namespace

RunResult run_serve_workload(const RunOptions& options) {
  RunResult result;
  const Mix mix = make_mix(options.seed);
  const std::string dir = options.work_dir + "/profiles";
  std::mt19937_64 arrivals(options.seed ^ 0x9e3779b97f4a7c15ull);
  SpanRecorder recorder;
  SpanRecorder* rec = options.trace ? &recorder : nullptr;

  // --- set-up: the measured service, plus throwaway set-ups in their own
  // directory at the start and in every round, so set-up time is sampled
  // across the whole run rather than in one moment of it.
  std::vector<double> setup_s, load_ms, start_ms;
  auto sample_setup = [&](const std::string& where) {
    fs::remove_all(where);
    SetupTimes times;
    std::unique_ptr<Service> sampled = set_up(where, mix, rec, times);
    setup_s.push_back(times.cpu_s);
    load_ms.push_back(times.load_ms);
    start_ms.push_back(times.start_ms);
    return sampled;
  };
  const std::string spare_dir = dir + "-spare";
  auto sample_spare_setups = [&](int count) {
    for (int k = 0; k < count; ++k) (void)sample_setup(spare_dir);
  };
  const std::unique_ptr<Service> service = sample_setup(dir);
  sample_spare_setups(4);
  DecideServer& server = *service->server;
  Generator& gen = *service->generator;
  const double deadline = now_s() + options.seconds;

  auto tally = [&] {
    result.attempted = gen.attempted;
    result.failed = gen.failed;
  };
  auto reload = [&server] { server.reload(); };

  if (!options.trace) {
    // Every round times one batch, then checks a second one across a hot
    // reload.  A co-runner on the host can only slow a batch down, so the
    // figure is the least server CPU over the rounds.
    double cpu = std::numeric_limits<double>::infinity();
    double round_start = now_s();
    do {
      round_start = now_s();
      cpu = std::min(cpu, server_cpu_s([&] { (void)gen.batch({}); }));
      (void)gen.batch(reload);
      sample_spare_setups(1);
      tally();
    } while (round_fits(round_start, deadline) && result.failed == 0);

    result.add("setup_s", median(setup_s), "s");
    result.add("cpu_s", cpu, "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    if (gen.unknown_replies == 0) ++result.failed;  // the mix must reach kUnknownFacility
    return result;
  }

  // --- traced run -----------------------------------------------------------
  // Each round offers every ladder rate for a few windows, then times a
  // batch untraced and traced and records the generator's own counters.
  std::map<double, std::vector<double>> p50_us, p99_us;
  std::vector<double> overhead_ms, batch_wall_s, lateness_p50, lateness_p99, frames_per_write,
      responses_per_read;
  InProcessCosts costs;
  int rounds = 0;
  double round_start = now_s();
  do {
    round_start = now_s();
    for (const double rate : kLadder) {
      for (int w = 0; w < kWindowsPerStep; ++w) {
        const StepResult step = gen.open_loop(rate, kWindowSeconds, arrivals);
        p50_us[rate].push_back(percentile(step.latency_s, 0.5) * 1e6);
        p99_us[rate].push_back(percentile(step.latency_s, 0.99) * 1e6);
      }
    }
    const double untraced = gen.batch({});
    batch_wall_s.push_back(untraced);
    double traced = 0.0;
    {
      const ScopedSpan span(&recorder, "gen.batch", "gen");
      gen.recorder = &recorder;
      gen.parent_span = span.index();
      traced = gen.batch({});
      gen.recorder = nullptr;
    }
    overhead_ms.push_back((traced - untraced) * 1e3);

    gen.counters = GenCounters{};
    gen.track_lateness = true;
    {
      const ScopedSpan span(&recorder, "gen.open_loop", "gen");
      (void)gen.open_loop(kHeavyRate, kWindowSeconds, arrivals);
    }
    gen.track_lateness = false;
    const GenCounters& c = gen.counters;
    lateness_p50.push_back(percentile(c.lateness_s, 0.5) * 1e6);
    lateness_p99.push_back(percentile(c.lateness_s, 0.99) * 1e6);
    frames_per_write.push_back(c.writes ? static_cast<double>(c.frames_written) / c.writes : 0.0);
    responses_per_read.push_back(c.reads ? static_cast<double>(c.responses) / c.reads : 0.0);
    if (rounds == 0) costs = time_in_process(server, mix, recorder);
    sample_spare_setups(2);
    tally();
    ++rounds;
  } while (round_fits(round_start, deadline) && result.failed == 0);

  // Server-side counters from its own stats endpoint payload.
  const sss::trace::JsonValue stats = sss::trace::JsonValue::parse(server.stats_json());
  const sss::trace::JsonValue& totals = stats.at("totals");
  double most = 0.0;
  double least = 0.0;
  bool first = true;
  for (const sss::trace::JsonValue& worker : stats.at("workers").as_array()) {
    const double requests = worker.at("requests").as_double();
    most = first ? requests : std::max(most, requests);
    least = first ? requests : std::min(least, requests);
    first = false;
  }

  std::vector<double> ladder_p99;
  for (const double rate : kLadder) ladder_p99.push_back(median(p99_us[rate]));
  result.add("serve.batch_wall_s", median(batch_wall_s), "s");
  result.add("serve.p50_us.r100k", median(p50_us[kLightRate]), "us");
  result.add("serve.p99_us.r100k", median(p99_us[kLightRate]), "us");
  result.add("serve.p50_us.r800k", median(p50_us[kHeavyRate]), "us");
  result.add("serve.p99_us.r800k", median(p99_us[kHeavyRate]), "us");
  result.add("serve.knee_kreqs", knee_rate(ladder_p99) / 1e3, "kreq/s");
  result.add("serve.load_profiles_ms", median(load_ms), "ms");
  result.add("serve.start_ms", median(start_ms), "ms");
  result.add("serve.decide_ns.p50", percentile(costs.decide_ns, 0.5), "ns");
  result.add("serve.decide_ns.p99", percentile(costs.decide_ns, 0.99), "ns");
  result.add("codec.encode_ns", costs.encode_ns, "ns");
  result.add("codec.decode_ns", costs.decode_ns, "ns");
  result.add("gen.frames_per_write", median(frames_per_write), "ratio");
  result.add("gen.responses_per_read", median(responses_per_read), "ratio");
  result.add("gen.lateness_us.p50", median(lateness_p50), "us");
  result.add("gen.lateness_us.p99", median(lateness_p99), "us");
  result.add("server.requests", totals.at("requests").as_double(), "count");
  result.add("server.request_errors", totals.at("request_errors").as_double(), "count");
  result.add("server.protocol_errors", totals.at("protocol_errors").as_double(), "count");
  result.add("server.worker_skew", least > 0.0 ? most / least : 0.0, "ratio");
  result.add("trace.overhead_ms", median(overhead_ms), "ms");
  result.add("trace.spans", static_cast<double>(recorder.spans().size()), "count");
  for (const char* layer : {"serve", "codec", "gen"}) {
    result.add(std::string("self_ms.") + layer, recorder.self_ms(layer) / rounds, "ms");
  }
  result.spans_json = recorder.to_json();
  complete_per_layer(result);
  if (gen.unknown_replies == 0) ++result.failed;
  return result;
}

}  // namespace perfbench
