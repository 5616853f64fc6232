// fluid.hpp — flow-level fluid (processor-sharing) network model.
//
// The optimistic baseline the paper warns about: flows share the bottleneck
// with max-min fairness, there are no queues, no losses, no retransmissions,
// and completion times degrade gracefully with load.  It exists for two
// reasons:
//   1. fast parameter sweeps where packet-level fidelity is unnecessary;
//   2. the ablation bench, which quantifies how far this average-oriented
//      model underestimates worst-case transfer times versus the
//      packet-level TCP simulator (the paper's Section 3 critique of the
//      d_continuum ~ d_prop simplification, Eq. 2).
//
// Rates are piecewise constant between events (arrivals/completions); each
// event triggers a water-filling recomputation honoring an optional
// per-flow rate cap.
#pragma once

#include <cstdint>
#include <vector>

#include "simnet/workload.hpp"
#include "units/units.hpp"

namespace sss::simnet {

struct FluidConfig {
  units::DataRate capacity = units::DataRate::gigabits_per_second(25.0);
  // 0 means uncapped (pure processor sharing).
  units::DataRate per_flow_cap = units::DataRate::bytes_per_second(0.0);
  // Added to every completion (one propagation delay for the final bytes to
  // land); keeps the fluid FCT comparable with the packet model's
  // end-to-end measurement.
  units::Seconds propagation_delay = units::Seconds::millis(8.0);
};

struct FluidFlowRecord {
  std::uint32_t flow_id = 0;
  std::uint32_t client_id = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double bytes = 0.0;

  [[nodiscard]] double fct_s() const { return end_s - start_s; }
};

class FluidSimulator {
 public:
  explicit FluidSimulator(FluidConfig config);

  // Flows may be added in any order before run().
  void add_flow(std::uint32_t flow_id, std::uint32_t client_id, units::Seconds start,
                units::Bytes size);

  // Integrates the piecewise-constant rate schedule until every flow
  // completes and returns the per-flow records (sorted by flow id).
  [[nodiscard]] std::vector<FluidFlowRecord> run();

 private:
  FluidConfig config_;
  struct Pending {
    std::uint32_t flow_id;
    std::uint32_t client_id;
    double start_s;
    double bytes;
  };
  std::vector<Pending> pending_;
};

// The World of `config` (normalize()), refusing with a named
// std::invalid_argument what the fluid substrate cannot simulate: facility
// tenants, cross-traffic (background_load or a storm with load > 0), and
// any admission policy in the world (mode=scheduled's one-slot FIFO
// included).  run_fluid_experiment starts here; scenario execution calls it
// on every fluid cell before any cell starts.
[[nodiscard]] World fluid_world(const WorkloadConfig& config);

// Runs the same workload as run_experiment but under the fluid model,
// producing comparable metrics (client FCTs; utilization computed
// analytically; zero losses by construction).
[[nodiscard]] ExperimentResult run_fluid_experiment(const WorkloadConfig& config);

}  // namespace sss::simnet
