// background.hpp — background cross-traffic injection.
//
// Real instrument-to-HPC paths are shared: other science flows, backups,
// and bulk replication come and go.  This generator injects Poisson-arrival
// TCP flows with (optionally heavy-tailed) sizes onto the same bottleneck
// link, so experiments can measure the Streaming Speed Score under the
// "network performance variability" the paper's conclusion calls out as
// future work.  The foreground workload's metrics are unchanged — the
// background flows simply consume capacity and queue space.
//
// Cross-traffic rides a Route: end-to-end storms share every hop with the
// foreground, while a one-hop Route over a single mid-path link models
// traffic that enters and leaves at adjacent nodes (the moving-bottleneck
// scenarios).  The `start`/`until` window makes the storm schedulable, so
// the saturating hop can shift mid-run.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "simnet/link.hpp"
#include "simnet/simulation.hpp"
#include "simnet/tcp_flow.hpp"
#include "stats/rng.hpp"
#include "units/units.hpp"

namespace sss::simnet {

struct BackgroundTrafficConfig {
  // Long-run average offered load as a fraction of the route's bottleneck
  // capacity.
  double target_load = 0.2;
  // Mean flow size; arrival rate is derived as
  //   lambda = target_load * capacity / mean_flow_size.
  units::Bytes mean_flow_size = units::Bytes::megabytes(64.0);
  // Heavy-tailed sizes (Pareto with this shape) when > 0; exponential
  // otherwise.  Shape ~1.5 reproduces the mice-and-elephants mix of real
  // WAN traffic.
  double pareto_shape = 1.5;
  // Injection window [start, until); flows in flight at `until` run to
  // completion.
  units::Seconds start = units::Seconds::of(0.0);
  units::Seconds until = units::Seconds::of(10.0);
  TcpConfig tcp;
  std::uint64_t seed = 4242;
};

// Schedules background flows on `forward`/`reverse` within `sim`.  The
// returned object owns the flows and must outlive the simulation run; the
// routes' links must outlive it.
// Flow objects are allocated from `mem` (a per-cell Arena keeps them off
// the heap), and flow starts ride the non-allocating typed event queue.
class BackgroundTraffic : public FlowObserver, public EventHandler {
 public:
  BackgroundTraffic(BackgroundTrafficConfig config, Route forward, Route reverse,
                    std::pmr::memory_resource* mem = std::pmr::get_default_resource());
  ~BackgroundTraffic() override;

  // Register all arrivals up front (Poisson process realized from the
  // seed).  Call once before running the simulation.
  void schedule(Simulation& sim);

  void on_flow_complete(Simulation& sim, const TcpFlow& flow) override;
  // Typed flow-start events (a = index into flows_).
  void on_event(Simulation& sim, int kind, std::uint64_t a, std::uint64_t b) override;

  [[nodiscard]] std::size_t flows_started() const { return flows_.size(); }
  [[nodiscard]] std::size_t flows_completed() const { return completed_; }
  [[nodiscard]] units::Bytes bytes_offered() const { return units::Bytes::of(bytes_offered_); }

 private:
  BackgroundTrafficConfig config_;
  Route forward_;
  Route reverse_;
  std::pmr::memory_resource* mem_;
  std::pmr::vector<TcpFlow*> flows_;  // allocated from mem_
  std::size_t completed_ = 0;
  double bytes_offered_ = 0.0;
};

}  // namespace sss::simnet
