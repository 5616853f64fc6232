#include "simnet/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "simnet/metrics.hpp"
#include "simnet/workload.hpp"
#include "stats/percentile.hpp"

namespace sss::simnet {

const char* to_string(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kNone:
      return "none";
    case SchedPolicy::kFifo:
      return "fifo";
    case SchedPolicy::kFairShare:
      return "fair";
    case SchedPolicy::kEdf:
      return "edf";
    case SchedPolicy::kBackoff:
      return "backoff";
  }
  return "unknown";
}

std::optional<SchedPolicy> sched_policy_from_string(std::string_view name) {
  if (name == "none") return SchedPolicy::kNone;
  if (name == "fifo") return SchedPolicy::kFifo;
  if (name == "fair") return SchedPolicy::kFairShare;
  if (name == "edf") return SchedPolicy::kEdf;
  if (name == "backoff") return SchedPolicy::kBackoff;
  return std::nullopt;
}

TransferScheduler::TransferScheduler(const SchedulerConfig& config,
                                     std::size_t tenant_count,
                                     std::pmr::memory_resource* mem)
    : config_(config), queues_(mem), admit_times_(mem) {
  if (config_.policy == SchedPolicy::kNone) {
    throw std::logic_error("TransferScheduler: policy 'none' needs no scheduler");
  }
  if (tenant_count == 0) {
    throw std::invalid_argument("TransferScheduler: need at least one tenant");
  }
  queues_.reserve(tenant_count);
  for (std::size_t i = 0; i < tenant_count; ++i) queues_.emplace_back(mem);
  if (config_.policy == SchedPolicy::kBackoff) {
    admit_times_.assign(static_cast<std::size_t>(config_.burst_limit), 0.0);
  }
}

void TransferScheduler::submit(std::uint32_t client_id, std::uint16_t tenant,
                               double deadline_s) {
  if (tenant >= queues_.size()) {
    throw std::out_of_range("TransferScheduler: tenant index out of range");
  }
  queues_[tenant].items.push_back(Item{client_id, deadline_s});
  ++pending_;
}

std::size_t TransferScheduler::pick_tenant() const {
  switch (config_.policy) {
    case SchedPolicy::kFairShare: {
      // Round-robin from the cursor; the first non-empty queue wins.
      for (std::size_t step = 0; step < queues_.size(); ++step) {
        const std::size_t t = (rr_cursor_ + step) % queues_.size();
        if (!queues_[t].empty()) return t;
      }
      break;
    }
    case SchedPolicy::kEdf: {
      // Deadlines are monotone within a tenant (arrival order), so the
      // earliest deadline overall is among the queue heads.  Ties break
      // toward the lower client id for determinism.
      std::size_t best = queues_.size();
      for (std::size_t t = 0; t < queues_.size(); ++t) {
        if (queues_[t].empty()) continue;
        if (best == queues_.size() ||
            queues_[t].front().deadline_s < queues_[best].front().deadline_s ||
            (queues_[t].front().deadline_s == queues_[best].front().deadline_s &&
             queues_[t].front().client_id < queues_[best].front().client_id)) {
          best = t;
        }
      }
      if (best < queues_.size()) return best;
      break;
    }
    case SchedPolicy::kNone:
    case SchedPolicy::kFifo:
    case SchedPolicy::kBackoff: {
      // Arrival order: client ids are assigned in arrival order, so the
      // smallest pending id is the FIFO head.
      std::size_t best = queues_.size();
      for (std::size_t t = 0; t < queues_.size(); ++t) {
        if (queues_[t].empty()) continue;
        if (best == queues_.size() ||
            queues_[t].front().client_id < queues_[best].front().client_id) {
          best = t;
        }
      }
      if (best < queues_.size()) return best;
      break;
    }
  }
  throw std::logic_error("TransferScheduler: pick_tenant on empty queues");
}

std::optional<std::uint32_t> TransferScheduler::try_dispatch(double now,
                                                             double* retry_at) {
  if (pending_ == 0 || active_ >= static_cast<std::size_t>(config_.slots)) {
    return std::nullopt;  // an arrival or a completion will re-pump
  }
  if (config_.policy == SchedPolicy::kBackoff) {
    double earliest = now;
    if (any_admitted_ && config_.backoff_s > 0.0) {
      earliest = std::max(earliest, last_admit_s_ + config_.backoff_s);
    }
    if (admit_count_ >= admit_times_.size()) {
      // Window full: the oldest of the last burst_limit admissions must age
      // past burst_window_s before the next one.
      const double oldest = admit_times_[admit_count_ % admit_times_.size()];
      earliest = std::max(earliest, oldest + config_.burst_window_s);
    }
    if (earliest > now) {
      if (retry_at != nullptr) *retry_at = earliest;
      return std::nullopt;
    }
  }

  const std::size_t tenant = pick_tenant();
  Queue& queue = queues_[tenant];
  const std::uint32_t client_id = queue.front().client_id;
  ++queue.head;
  --pending_;
  ++active_;
  if (config_.policy == SchedPolicy::kFairShare) rr_cursor_ = tenant + 1;
  if (config_.policy == SchedPolicy::kBackoff) {
    admit_times_[admit_count_ % admit_times_.size()] = now;
    ++admit_count_;
    last_admit_s_ = now;
    any_admitted_ = true;
  }
  return client_id;
}

void TransferScheduler::release() {
  if (active_ == 0) throw std::logic_error("TransferScheduler: release without dispatch");
  --active_;
}

// --- per-tenant outcome metrics --------------------------------------------

double jain_fairness(const std::vector<double>& shares) {
  if (shares.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : shares) {
    sum += x;
    sum_sq += x * x;
  }
  if (!(sum_sq > 0.0)) return 1.0;
  return (sum * sum) / (static_cast<double>(shares.size()) * sum_sq);
}

std::vector<TenantStat> facility_tenant_stats(const WorkloadConfig& config,
                                              const ExperimentMetrics& metrics) {
  // One entry per world tenant, theoretical time at its route's bottleneck.
  // A non-facility run has one default tenant ("all") over the whole
  // population, so the derived metrics stay evaluable on any run.
  const World world = normalize(config);
  std::vector<TenantStat> out;
  std::vector<double> t_th;
  out.reserve(world.tenants.size());
  t_th.reserve(world.tenants.size());
  for (const WorldTenant& tenant : world.tenants) {
    TenantStat stat;
    stat.name = tenant.name;
    stat.t_theoretical_s =
        (tenant.transfer_size / world.bottleneck(tenant.route).capacity).seconds();
    t_th.push_back(stat.t_theoretical_s);
    out.push_back(std::move(stat));
  }

  std::vector<std::vector<double>> slowdowns(out.size());
  for (const ClientRecord& client : metrics.clients) {
    const std::size_t j = std::min<std::size_t>(client.tenant, out.size() - 1);
    TenantStat& stat = out[j];
    ++stat.clients;
    const double latency = client.total_latency_s();
    if (t_th[j] > 0.0) slowdowns[j].push_back(latency / t_th[j]);
    const double wait = client.queue_wait_s();
    stat.mean_queue_wait_s += wait;
    stat.max_queue_wait_s = std::max(stat.max_queue_wait_s, wait);
  }
  for (std::size_t j = 0; j < out.size(); ++j) {
    TenantStat& stat = out[j];
    if (stat.clients > 0) stat.mean_queue_wait_s /= static_cast<double>(stat.clients);
    if (!slowdowns[j].empty()) {
      double sum = 0.0;
      for (const double s : slowdowns[j]) sum += s;
      stat.mean_slowdown = sum / static_cast<double>(slowdowns[j].size());
      stat.p99_slowdown = stats::quantile(slowdowns[j], 0.99);
    }
  }
  return out;
}

double facility_jain_fairness(const WorkloadConfig& config,
                              const ExperimentMetrics& metrics) {
  std::vector<double> shares;
  for (const TenantStat& stat : facility_tenant_stats(config, metrics)) {
    if (stat.mean_slowdown > 0.0) shares.push_back(1.0 / stat.mean_slowdown);
  }
  return jain_fairness(shares);
}

double facility_worst_p99_slowdown(const WorkloadConfig& config,
                                   const ExperimentMetrics& metrics) {
  double worst = 0.0;
  for (const TenantStat& stat : facility_tenant_stats(config, metrics)) {
    worst = std::max(worst, stat.p99_slowdown);
  }
  return worst;
}

}  // namespace sss::simnet
