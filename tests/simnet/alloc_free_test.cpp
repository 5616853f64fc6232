// alloc_free_test.cpp — enforces the arena contract: after a warmup run,
// Workload::drive() performs ZERO heap allocations.
//
// The counting hooks override the global operator new/delete for this test
// binary only (each tests/**/*.cpp is its own executable, so the override
// cannot leak into other tests).  The zero-alloc window is drive(): the
// prepare() phase may use transient std::vector helpers (arrival schedules,
// hop lists), but once the world is built every event dispatch, packet
// ring push, scoreboard update, and scheduled-mode client spawn must come
// from the cell's Arena — whose chunks are retained across prepare()
// cycles, so a warm re-run re-traces the same bump allocations without ever
// reaching the upstream heap.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "obs/phase_timer.hpp"
#include "simnet/arena.hpp"
#include "simnet/workload.hpp"
#include "units/units.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace sss::simnet {
namespace {

WorkloadConfig small_config() {
  WorkloadConfig config;
  config.duration = units::Seconds::of(1.0);
  config.concurrency = 2;
  config.parallel_flows = 2;
  config.transfer_size = units::Bytes::megabytes(10.0);
  config.link.capacity = units::DataRate::gigabits_per_second(2.5);
  config.link.propagation_delay = units::Seconds::millis(8.0);
  config.link.buffer = units::Bytes::megabytes(2.0);
  config.seed = 42;
  return config;
}

TEST(AllocFree, DriveIsHeapAllocationFreeAfterWarmup) {
  Workload workload(small_config());

  // Warmup: the first run grows the arena's chunk list (chunks come from
  // the heap) and populates every container to its high-water size.
  (void)workload.run();

  // Warm run: rebuild the world from the rewound arena, then count.
  workload.prepare();
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  workload.drive();
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "Workload::drive() reached the global heap after warmup";

  const ExperimentResult result = workload.finish();
  EXPECT_GT(result.events_processed, 0u);
}

TEST(AllocFree, WarmPrepareAddsNoArenaChunks) {
  Workload workload(small_config());
  (void)workload.run();
  const auto warm = workload.arena().stats();
  EXPECT_GT(warm.chunk_allocations, 0u);  // first run did grow the arena

  // A second full cycle re-traces the same bump allocations inside the
  // retained chunks: the chunk count must not move.
  (void)workload.run();
  const auto rerun = workload.arena().stats();
  EXPECT_EQ(rerun.chunk_allocations, warm.chunk_allocations);
  EXPECT_EQ(rerun.reserved_bytes, warm.reserved_bytes);
}

TEST(AllocFree, DriveWithPhaseTimersDisabledIsAllocationFree) {
  // The observability off-switch must be ZERO-cost on this axis: with
  // timers disabled (the default) every ScopedPhase on the hot path is a
  // relaxed load plus a branch — no stores, no heap.  This is the same
  // assertion as the base test but stated explicitly against the obs layer
  // so a future ScopedPhase change that allocates fails loudly here.
  ASSERT_FALSE(obs::phase_timing_enabled());
  Workload workload(small_config());
  (void)workload.run();

  workload.prepare();
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  workload.drive();
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "drive() with phase timers disabled reached the global heap";
}

TEST(AllocFree, DriveWithPhaseTimersEnabledIsAllocationFree) {
  // The ENABLED path accumulates into fixed global atomic slots, so even a
  // fully instrumented run stays allocation-free — the arena contract holds
  // with the timers on.
  Workload workload(small_config());
  (void)workload.run();

  workload.prepare();
  obs::reset_phase_totals();
  obs::set_phase_timing_enabled(true);
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  workload.drive();
  g_counting.store(false, std::memory_order_relaxed);
  obs::set_phase_timing_enabled(false);

  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "drive() with phase timers ENABLED reached the global heap";
  // And the timers actually measured the instrumented phases.
  const auto totals = obs::phase_totals();
  EXPECT_GT(totals[static_cast<int>(obs::Phase::kLinkDrain)].count, 0u);
  EXPECT_GT(totals[static_cast<int>(obs::Phase::kTcpProcess)].count, 0u);
  obs::reset_phase_totals();
}

TEST(AllocFree, ScheduledModeDriveIsAlsoAllocationFree) {
  // kScheduled admits clients DURING drive() through a one-slot FIFO
  // TransferScheduler; its queues, and the TcpFlow objects and scoreboards
  // it spawns, must come from the arena, not the heap.
  WorkloadConfig config = small_config();
  config.mode = SpawnMode::kScheduled;
  Workload workload(config);
  (void)workload.run();

  workload.prepare();
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  workload.drive();
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "scheduled-mode drive() reached the global heap after warmup";
}

TEST(AllocFree, FacilityDriveIsAllocationFree) {
  // Three tenants share the dual_facility_fanout graph (6 edges, so 12
  // live links with the reverse twins) under fair-share admission: every
  // link can be busy at once, and the scheduler admits clients during
  // drive().  The per-link dispatch state is sized in prepare(), so the
  // warm drive() must still stay off the heap.
  WorkloadConfig config = small_config();
  config.topology = "dual_facility_fanout";
  config.transfer_size = units::Bytes::megabytes(8.0);
  config.scheduler.policy = SchedPolicy::kFairShare;
  config.scheduler.slots = 2;
  TenantSpec heavy;
  heavy.src = "ins0";
  heavy.dst = "fac_a";
  heavy.concurrency = 2;
  TenantSpec light = heavy;
  light.src = "ins1";
  light.transfer_size = units::Bytes::megabytes(2.0);
  TenantSpec remote = light;
  remote.src = "ins2";
  remote.dst = "fac_b";
  config.tenants = {heavy, light, remote};
  Workload workload(config);
  (void)workload.run();

  workload.prepare();
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  workload.drive();
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "facility drive() reached the global heap after warmup";
  const ExperimentResult result = workload.finish();
  ASSERT_EQ(result.metrics.hops.size(), 6u);  // one per dual_facility_fanout edge
  std::size_t waited = 0;
  for (const ClientRecord& client : result.metrics.clients) {
    waited += client.queue_wait_s() > 0.0 ? 1 : 0;
  }
  EXPECT_GT(waited, 0u) << "fair-share admission must queue some clients";
}

}  // namespace
}  // namespace sss::simnet
