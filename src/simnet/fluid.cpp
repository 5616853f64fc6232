#include "simnet/fluid.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

namespace sss::simnet {

FluidSimulator::FluidSimulator(FluidConfig config) : config_(config) {
  if (!config_.capacity.is_positive()) {
    throw std::invalid_argument("FluidSimulator: capacity must be positive");
  }
}

void FluidSimulator::add_flow(std::uint32_t flow_id, std::uint32_t client_id,
                              units::Seconds start, units::Bytes size) {
  if (!(size.bytes() > 0.0)) throw std::invalid_argument("FluidSimulator: size must be > 0");
  if (start.seconds() < 0.0) throw std::invalid_argument("FluidSimulator: start must be >= 0");
  pending_.push_back(Pending{flow_id, client_id, start.seconds(), size.bytes()});
}

namespace {

struct ActiveFlow {
  std::uint32_t flow_id;
  std::uint32_t client_id;
  double start_s;
  double bytes_total;
  double remaining;
  double rate = 0.0;
};

// Max-min water-filling with an optional uniform per-flow cap: every flow
// gets min(cap, fair share); capacity left by capped flows is re-divided
// among the rest.  With a uniform cap the result is simply
// min(cap, capacity / n), but the loop form documents intent and supports
// the uncapped case identically.
void assign_rates(std::vector<ActiveFlow>& active, double capacity, double cap) {
  if (active.empty()) return;
  const double n = static_cast<double>(active.size());
  double share = capacity / n;
  if (cap > 0.0 && cap < share) share = cap;
  for (auto& f : active) f.rate = share;
}

}  // namespace

std::vector<FluidFlowRecord> FluidSimulator::run() {
  std::vector<Pending> arrivals = pending_;
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Pending& x, const Pending& y) { return x.start_s < y.start_s; });

  std::vector<ActiveFlow> active;
  std::vector<FluidFlowRecord> done;
  done.reserve(arrivals.size());

  const double capacity = config_.capacity.bps();
  const double cap = config_.per_flow_cap.bps();
  std::size_t next_arrival = 0;
  double now = 0.0;

  while (!active.empty() || next_arrival < arrivals.size()) {
    assign_rates(active, capacity, cap);

    // Earliest completion at current rates.
    double dt_complete = std::numeric_limits<double>::infinity();
    for (const auto& f : active) {
      if (f.rate > 0.0) dt_complete = std::min(dt_complete, f.remaining / f.rate);
    }
    // Next arrival.
    double dt_arrival = std::numeric_limits<double>::infinity();
    if (next_arrival < arrivals.size()) {
      dt_arrival = arrivals[next_arrival].start_s - now;
    }

    if (active.empty()) {
      now = arrivals[next_arrival].start_s;
    } else {
      const double dt = std::min(dt_complete, dt_arrival);
      for (auto& f : active) f.remaining -= f.rate * dt;
      now += dt;
    }

    // Admit all arrivals due now.
    while (next_arrival < arrivals.size() && arrivals[next_arrival].start_s <= now + 1e-12) {
      const Pending& p = arrivals[next_arrival++];
      active.push_back(ActiveFlow{p.flow_id, p.client_id, p.start_s, p.bytes, p.bytes, 0.0});
    }

    // Retire completed flows (remaining ~ 0 within numeric tolerance).
    const double eps = 1e-6;  // bytes
    for (auto it = active.begin(); it != active.end();) {
      if (it->remaining <= eps) {
        FluidFlowRecord r;
        r.flow_id = it->flow_id;
        r.client_id = it->client_id;
        r.start_s = it->start_s;
        r.end_s = now + config_.propagation_delay.seconds();
        r.bytes = it->bytes_total;
        done.push_back(r);
        it = active.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::sort(done.begin(), done.end(), [](const FluidFlowRecord& x, const FluidFlowRecord& y) {
    return x.flow_id < y.flow_id;
  });
  return done;
}

World fluid_world(const WorkloadConfig& config) {
  if (config.facility_mode()) {
    // Per-tenant routing has no single bottleneck pipe to collapse onto;
    // facility workloads are packet-substrate only.
    throw std::invalid_argument(
        "fluid substrate does not support facility workloads (tenants set)");
  }
  // The fluid pipe carries only the workload's own clients: cross-traffic
  // and admission waits would be silently dropped from its figures.
  if (config.background_load > 0.0) {
    throw std::invalid_argument(
        "fluid substrate does not simulate cross-traffic (background_load > 0)");
  }
  for (std::size_t j = 0; j < config.hop_cross_traffic.size(); ++j) {
    if (config.hop_cross_traffic[j].load > 0.0) {
      throw std::invalid_argument("fluid substrate does not simulate cross-traffic (storm " +
                                  std::to_string(j) + " load > 0)");
    }
  }
  World world = normalize(config);
  if (world.admission.policy != SchedPolicy::kNone) {
    throw std::invalid_argument(
        "fluid substrate does not simulate admission (mode=scheduled admits one "
        "transfer at a time)");
  }
  return world;
}

ExperimentResult run_fluid_experiment(const WorkloadConfig& config) {
  config.validate();
  // The fluid model sees the path as its bottleneck pipe: slowest hop's
  // capacity, summed one-way propagation delay.  (Single-link configs
  // reduce to the former link figures exactly.)
  const World world = fluid_world(config);
  FluidConfig fluid_cfg;
  fluid_cfg.capacity = world.bottleneck().capacity;
  fluid_cfg.propagation_delay = total_propagation_delay(world.hops(world.canonical));
  FluidSimulator sim(fluid_cfg);

  // Mirror the packet orchestrator's spawn schedule exactly (without
  // jitter — the fluid model has no phase effects to break); the shared
  // helper keeps both substrates on the same arrival realization, Poisson
  // included.
  stats::Random arrival_rng(config.seed);
  const std::vector<double> arrivals = requested_arrival_times(config, arrival_rng);
  const units::Bytes per_flow =
      config.transfer_size / static_cast<double>(config.parallel_flows);

  std::uint32_t flow_id = 0;
  std::map<std::uint32_t, ClientRecord> client_records;
  for (std::uint32_t client_id = 0; client_id < arrivals.size(); ++client_id) {
    const double slot = arrivals[client_id];
    ClientRecord rec;
    rec.client_id = client_id;
    rec.requested_s = slot;
    rec.start_s = slot;
    rec.bytes = config.transfer_size.bytes();
    rec.flow_count = static_cast<std::uint32_t>(config.parallel_flows);
    client_records.emplace(client_id, rec);
    for (int f = 0; f < config.parallel_flows; ++f) {
      sim.add_flow(flow_id++, client_id, units::Seconds::of(slot), per_flow);
    }
  }

  const std::vector<FluidFlowRecord> flow_records = sim.run();

  ExperimentResult result;
  result.config = config;
  result.offered_load = config.offered_load();

  double last_end = 0.0;
  double total_bytes = 0.0;
  for (const auto& fr : flow_records) {
    FlowRecord r;
    r.flow_id = fr.flow_id;
    r.client_id = fr.client_id;
    r.start_s = fr.start_s;
    r.end_s = fr.end_s;
    r.bytes = fr.bytes;
    result.metrics.flows.push_back(r);

    auto& cr = client_records.at(fr.client_id);
    cr.end_s = std::max(cr.end_s, fr.end_s);
    last_end = std::max(last_end, fr.end_s);
    total_bytes += fr.bytes;
  }
  for (const auto& [id, rec] : client_records) result.metrics.clients.push_back(rec);

  // Analytic utilization: bytes delivered over the active span.
  if (last_end > 0.0) {
    result.metrics.mean_utilization =
        total_bytes / (last_end * fluid_cfg.capacity.bps());
    result.metrics.peak_utilization =
        std::min(1.0, result.offered_load);  // fluid never exceeds capacity
  }
  result.metrics.loss_rate = 0.0;
  result.sim_duration_s = last_end;
  return result;
}

}  // namespace sss::simnet
