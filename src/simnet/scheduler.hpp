// scheduler.hpp — facility transfer admission: tenants + pluggable policies.
//
// A facility workload routes many tenants (instrument -> facility flows)
// over one branched Topology; shared hops contend through the ordinary link
// model.  What the links cannot express is WHEN each transfer is allowed to
// enter the network — the admission decision a facility's transfer broker
// (Globus queue, DTN scheduler, beamline orchestrator) makes at the shared
// bottleneck.  TransferScheduler models exactly that decision and nothing
// else: a deterministic policy queue gating `slots` concurrent in-network
// transfers, with the queue discipline swept as an experimental axis:
//
//   kNone      — no admission control: every transfer starts at its arrival
//                instant (the classic workload behaviour);
//   kFifo      — strict arrival order, the baseline every facility queue
//                degenerates to (with one slot it is the workload's
//                SpawnMode::kScheduled admission);
//   kFairShare — per-tenant round-robin: a cursor walks the tenants and
//                admits each non-empty queue's head in turn, so one tenant's
//                burst cannot starve the others;
//   kEdf       — earliest-deadline-first across tenant queue heads
//                (deadlines are monotone within a tenant, so heads suffice);
//   kBackoff   — burst-aware FIFO: admissions are counted over a sliding
//                `burst_window_s`; once `burst_limit` is reached the next
//                admission waits for the window to drain, and `backoff_s`
//                enforces a minimum spacing between consecutive admissions.
//
// Everything here is pure bookkeeping driven by the simulation clock — no
// RNG, no wall time — so a policy sweep is bit-reproducible at any executor
// thread count.  TenantSpec and SchedulerConfig ride on WorkloadConfig
// (like CalibrationKnobs/StorageKnobs) so the ONE name→field binding table
// (--param / plan axes / plan JSON) reaches them like any other knob.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "units/units.hpp"

namespace sss::simnet {

struct WorkloadConfig;     // simnet/workload.hpp
struct ExperimentMetrics;  // simnet/metrics.hpp

enum class SchedPolicy {
  kNone,
  kFifo,
  kFairShare,
  kEdf,
  kBackoff,
};

[[nodiscard]] const char* to_string(SchedPolicy policy);
[[nodiscard]] std::optional<SchedPolicy> sched_policy_from_string(std::string_view name);

// One tenant of a facility workload: an instrument-side source streaming to
// a facility-side destination over the workload's Topology.  Zero-valued
// knobs inherit the workload-level defaults, so a sweep can override one
// tenant without restating the rest.
struct TenantSpec {
  std::string name;  // "" = "tenant<j>" (its index)
  // Topology node names; "" inherits the topology's canonical source/sink.
  std::string src;
  std::string dst;
  int concurrency = 0;  // clients per second; 0 = WorkloadConfig::concurrency
  units::Bytes transfer_size = units::Bytes::of(0.0);  // 0 = config default
  // Relative completion deadline for EDF (seconds after the requested
  // start); 0 = SchedulerConfig::deadline_s.
  double deadline_s = 0.0;

  friend bool operator==(const TenantSpec&, const TenantSpec&) = default;
};

struct SchedulerConfig {
  SchedPolicy policy = SchedPolicy::kNone;
  // Concurrent in-network transfers admitted past the shared bottleneck.
  int slots = 4;
  // Default relative deadline (s) for tenants that don't set one.
  double deadline_s = 30.0;
  // kBackoff: sliding admission window and its budget.
  double burst_window_s = 1.0;
  int burst_limit = 8;
  // kBackoff: minimum spacing between consecutive admissions (0 = off).
  double backoff_s = 0.0;

  friend bool operator==(const SchedulerConfig&, const SchedulerConfig&) = default;
};

// The admission queue.  submit() enqueues an arrived transfer;
// try_dispatch() returns the next client to admit at `now` under the
// configured policy, or nullopt; release() returns a slot when a transfer
// completes.  When the only obstacle is TIMING (backoff spacing, a full
// burst window), try_dispatch sets *retry_at to the earliest instant a
// dispatch could succeed so the caller can schedule a re-check; slot and
// queue obstacles leave *retry_at untouched (a completion or arrival will
// re-pump).  All state is allocated from `mem` (the per-cell arena).
class TransferScheduler {
 public:
  TransferScheduler(const SchedulerConfig& config, std::size_t tenant_count,
                    std::pmr::memory_resource* mem);

  void submit(std::uint32_t client_id, std::uint16_t tenant, double deadline_s);
  [[nodiscard]] std::optional<std::uint32_t> try_dispatch(double now, double* retry_at);
  void release();

  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::size_t active() const { return active_; }

 private:
  struct Item {
    std::uint32_t client_id = 0;
    double deadline_s = 0.0;
  };
  // Per-tenant FIFO: a vector plus a head cursor (entries are bounded by
  // the client count, so retired heads are reclaimed wholesale with the
  // arena — no per-pop bookkeeping).
  struct Queue {
    Queue(std::pmr::memory_resource* mem) : items(mem) {}
    std::pmr::vector<Item> items;
    std::size_t head = 0;
    [[nodiscard]] bool empty() const { return head >= items.size(); }
    [[nodiscard]] const Item& front() const { return items[head]; }
  };

  // Index of the tenant whose head the policy admits next (queues known
  // non-empty in aggregate).
  [[nodiscard]] std::size_t pick_tenant() const;

  SchedulerConfig config_;
  std::pmr::vector<Queue> queues_;  // one per tenant
  std::size_t pending_ = 0;
  std::size_t active_ = 0;
  std::size_t rr_cursor_ = 0;  // kFairShare: next tenant to consider
  // kBackoff: admission timestamps, a circular window of burst_limit slots.
  std::pmr::vector<double> admit_times_;
  std::size_t admit_count_ = 0;
  double last_admit_s_ = 0.0;
  bool any_admitted_ = false;
};

// --- per-tenant outcome metrics --------------------------------------------

// Per-tenant reduction of an experiment's client records: slowdown is
// total latency (queue wait + transfer) over the tenant's theoretical
// transfer time at its route bottleneck — the facility-fairness figure of
// merit.  Non-facility runs reduce to one pseudo-tenant over the whole
// client population (T_theoretical from the workload config), so the
// derived-metric catalog can evaluate these columns on any run.
struct TenantStat {
  std::string name;
  std::size_t clients = 0;       // spawned or censored-waiting
  double t_theoretical_s = 0.0;  // size / route bottleneck
  double mean_slowdown = 0.0;
  double p99_slowdown = 0.0;
  double mean_queue_wait_s = 0.0;
  double max_queue_wait_s = 0.0;
};

[[nodiscard]] std::vector<TenantStat> facility_tenant_stats(
    const WorkloadConfig& config, const ExperimentMetrics& metrics);

// Jain fairness index (sum x)^2 / (n sum x^2) over per-tenant normalized
// throughput shares x_i = 1 / mean_slowdown_i.  1.0 = perfectly fair;
// 1/n = one tenant gets everything.  Empty/degenerate input -> 1.0.
[[nodiscard]] double jain_fairness(const std::vector<double>& shares);

// Convenience reductions for the derived-metric catalog.
[[nodiscard]] double facility_jain_fairness(const WorkloadConfig& config,
                                            const ExperimentMetrics& metrics);
[[nodiscard]] double facility_worst_p99_slowdown(const WorkloadConfig& config,
                                                 const ExperimentMetrics& metrics);

}  // namespace sss::simnet
