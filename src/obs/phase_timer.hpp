// phase_timer.hpp — scoped host-time phase accounting with a zero-cost
// off-switch.
//
// The workload hot path (Workload::drive and everything it dispatches)
// processes tens of millions of events per sweep; "where does the host time
// go" must be answerable without making that path slower when nobody asks.
// The contract:
//
//   - DISABLED (default): every ScopedPhase costs one relaxed atomic load
//     and a predictable branch — no clock reads, no stores, and zero heap
//     allocations (pinned by tests/simnet/alloc_free_test.cpp alongside the
//     arena guarantee, and by the release-bench CI gate on
//     BM_WorkloadExperiment / BM_TcpTransfer);
//   - ENABLED: two steady_clock reads plus relaxed atomic accumulation into
//     fixed global slots — still allocation-free, so the arena contract
//     holds with timers on.
//
// Totals are INCLUSIVE: kTcpProcess covers the ACK handling that nests a
// kTransmit burst, and kDrive covers everything dispatched from the event
// loop.  Phase timing measures HOST time (std::chrono::steady_clock), so it
// is deliberately outside every determinism guarantee — enabling it never
// changes simulation results, only adds a report.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace sss::obs {

enum class Phase : int {
  kPrepare = 0,   // Workload::prepare — world construction
  kDrive,         // Workload::drive — the event loop
  kFinish,        // Workload::finish — metrics collection
  kTransmit,      // TcpFlow::maybe_send — window walk + packet sends
  kLinkDrain,     // Link::deliver — batched delivery drains
  kTcpProcess,    // TcpFlow::on_packet — data/ACK processing
};
inline constexpr int kPhaseCount = 6;

[[nodiscard]] const char* to_string(Phase phase);

struct PhaseTotal {
  std::uint64_t ns = 0;     // accumulated inclusive host time
  std::uint64_t count = 0;  // number of scopes entered
};

namespace detail {
struct PhaseSlot {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> count{0};
};
extern std::atomic<bool> g_phase_timing_enabled;
extern std::array<PhaseSlot, kPhaseCount> g_phase_slots;
}  // namespace detail

[[nodiscard]] inline bool phase_timing_enabled() {
  return detail::g_phase_timing_enabled.load(std::memory_order_relaxed);
}
void set_phase_timing_enabled(bool enabled);
void reset_phase_totals();
[[nodiscard]] std::array<PhaseTotal, kPhaseCount> phase_totals();
// Human-readable per-phase table ("" when nothing was recorded).
[[nodiscard]] std::string phase_report();

// RAII phase scope.  Constructed on the hot path millions of times; the
// disabled path must stay branch-predictable and store-free.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase) noexcept {
    if (phase_timing_enabled()) [[unlikely]] arm(phase);
  }
  ~ScopedPhase() {
    if (armed_) [[unlikely]] record();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  void arm(Phase phase) noexcept {
    armed_ = true;
    phase_ = phase;
    start_ = std::chrono::steady_clock::now();
  }
  void record() noexcept {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    auto& slot = detail::g_phase_slots[static_cast<int>(phase_)];
    slot.ns.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
    slot.count.fetch_add(1, std::memory_order_relaxed);
  }

  bool armed_ = false;
  Phase phase_ = Phase::kPrepare;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace sss::obs
