// server.hpp — decide_server: the long-running decision service.
//
// Architecture (one accept loop, N sharded workers, zero locks on the hot
// path):
//
//   accept thread ── accept4 ──> round-robin ──> worker inbox + eventfd
//   worker k: epoll loop over its connections
//     read until EAGAIN -> FrameReader -> decide()/stats -> coalesced write
//
// Each connection lives on exactly one worker for its whole life, so
// per-connection state (frame buffer, write queue) is single-threaded by
// construction.  Workers touch shared state in exactly two places: the
// atomic snapshot load (serve/registry.hpp) and their own stats counters
// (relaxed atomics, read by the stats endpoint).  Responses for all frames
// decoded from one read batch are coalesced into one write(2), so the
// syscalls are paid per burst, not per request.  Measured split on a 4-vCPU
// Xeon (perfbench decide_open_loop, bursts of 128 frames): about 190 ns of
// server CPU per request, of which decide() is ~50 ns, frame reassembly and
// request decode ~40 ns, response encode ~20 ns, and the remaining ~80 ns
// the read/write/epoll syscalls and counters amortized over the burst.
//
// Hot reload: reload() re-scans the profile directory and atomically swaps
// the snapshot; in-flight requests keep the snapshot they started with
// (shared_ptr pin), so a reload never tears a decision and never drops a
// request.  The `decide_server` tool wires SIGHUP and the --watch mtime
// poll (ProfileDirWatcher below) to reload().
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.hpp"

namespace sss::serve {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;   // 0 = kernel-assigned (port() reports it)
  int workers = 0;          // 0 = max(1, hardware_concurrency - 1)
  std::string profile_dir;  // "" = start with an empty snapshot
  int listen_backlog = 512;
};

// Per-worker counters.  Monotonic, relaxed; `connections_open` is the
// per-worker queue depth the stats endpoint reports.
struct WorkerStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_open{0};
  std::atomic<std::uint64_t> requests{0};        // decide + stats frames
  std::atomic<std::uint64_t> decides{0};
  std::atomic<std::uint64_t> stats_requests{0};
  std::atomic<std::uint64_t> request_errors{0};  // non-fatal error responses
  std::atomic<std::uint64_t> protocol_errors{0}; // fatal, connection closed
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
};

class DecideServer {
 public:
  explicit DecideServer(ServerConfig config);
  ~DecideServer();

  DecideServer(const DecideServer&) = delete;
  DecideServer& operator=(const DecideServer&) = delete;

  // Bind + listen + spawn the accept thread and workers.  Performs the
  // initial profile load (generation 1) when profile_dir is set.  Throws
  // std::runtime_error on socket errors or an unloadable profile dir.
  void start();
  // Graceful shutdown: stop accepting, close every connection, join all
  // threads.  Idempotent.
  void stop();

  // The actual bound port (after start()).
  [[nodiscard]] std::uint16_t port() const { return bound_port_; }

  // Re-scan profile_dir and publish a new snapshot.  Thread-safe and
  // serialized; concurrent in-flight requests are unaffected (they hold
  // the previous snapshot).  Returns the new generation.  On a load error
  // the old snapshot stays current, reload_errors increments, and the
  // error is rethrown (callers decide whether that is fatal).
  std::uint64_t reload();

  [[nodiscard]] const SnapshotRegistry& registry() const { return registry_; }
  [[nodiscard]] std::uint64_t reload_count() const { return reload_count_.load(); }
  [[nodiscard]] std::uint64_t reload_errors() const { return reload_errors_.load(); }
  [[nodiscard]] int worker_count() const { return static_cast<int>(workers_.size()); }

  // The stats endpoint's payload: machine-readable counters as JSON
  // ({format, generation, reloads, profiles, workers[], totals}).  Also
  // callable directly (the tool's --stats-out dump).
  [[nodiscard]] std::string stats_json() const;

 private:
  struct Worker;

  void accept_loop();

  ServerConfig config_;
  SnapshotRegistry registry_;
  std::atomic<std::uint64_t> reload_count_{0};
  std::atomic<std::uint64_t> reload_errors_{0};
  std::mutex reload_mutex_;

  int listen_fd_ = -1;
  int accept_wake_fd_ = -1;  // eventfd: wakes the accept loop on stop()
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread accept_thread_;
  std::size_t next_worker_ = 0;
};

// mtime/name-set poller behind `decide_server --watch`: changed() re-scans
// the directory and reports whether the set of *.json files or any mtime
// differs from the previous scan (the first scan primes the state and
// reports false).  Pure filesystem inspection — the tool decides to call
// DecideServer::reload().
class ProfileDirWatcher {
 public:
  explicit ProfileDirWatcher(std::string dir);

  [[nodiscard]] bool changed();

 private:
  std::string dir_;
  bool primed_ = false;
  std::map<std::string, std::filesystem::file_time_type> mtimes_;
};

}  // namespace sss::serve
