// Property tests for the network simulator: conservation laws and physical
// lower bounds across randomized workloads (parameterized gtest).
#include <gtest/gtest.h>

#include "simnet/fluid.hpp"
#include "simnet/workload.hpp"
#include "stats/rng.hpp"

namespace sss::simnet {
namespace {

WorkloadConfig random_workload(std::uint64_t seed) {
  stats::Random rng(seed);
  WorkloadConfig cfg;
  cfg.duration = units::Seconds::of(rng.uniform(0.5, 2.0));
  cfg.concurrency = static_cast<int>(rng.uniform_index(5)) + 1;
  cfg.parallel_flows = static_cast<int>(rng.uniform_index(4)) + 1;
  cfg.transfer_size = units::Bytes::megabytes(rng.uniform(5.0, 60.0));
  cfg.mode = rng.uniform() < 0.5 ? SpawnMode::kSimultaneousBatches : SpawnMode::kScheduled;
  cfg.link.capacity = units::DataRate::gigabits_per_second(rng.uniform(1.0, 5.0));
  cfg.link.propagation_delay = units::Seconds::millis(rng.uniform(1.0, 20.0));
  cfg.link.buffer = units::Bytes::megabytes(rng.uniform(0.5, 20.0));
  cfg.seed = seed;
  return cfg;
}

// The fluid substrate refuses any admission policy, mode=scheduled's
// one-slot FIFO included; its property runs take the same workload with
// simultaneous batches instead.
WorkloadConfig fluid_workload(std::uint64_t seed) {
  WorkloadConfig cfg = random_workload(seed);
  if (cfg.mode == SpawnMode::kScheduled) {
    EXPECT_THROW((void)run_fluid_experiment(cfg), std::invalid_argument);
    cfg.mode = SpawnMode::kSimultaneousBatches;
  }
  return cfg;
}

class SimulatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorProperty, NoFlowBeatsPhysics) {
  const WorkloadConfig cfg = random_workload(GetParam());
  const auto result = run_experiment(cfg);
  const double rtt = 2.0 * cfg.link.propagation_delay.seconds();
  for (const auto& flow : result.metrics.flows) {
    if (flow.censored) continue;
    // Lower bound: serialization of the payload at link rate plus one RTT
    // (first data + its ack path).
    const double serialization = flow.bytes / cfg.link.capacity.bps();
    EXPECT_GE(flow.fct_s(), serialization * 0.999)
        << "flow " << flow.flow_id << " beat serialization";
    EXPECT_GE(flow.fct_s(), rtt * 0.999) << "flow " << flow.flow_id << " beat RTT";
  }
}

TEST_P(SimulatorProperty, ClientEnvelopesItsFlows) {
  const auto result = run_experiment(random_workload(GetParam()));
  for (const auto& client : result.metrics.clients) {
    double worst_flow = 0.0;
    int flows = 0;
    for (const auto& flow : result.metrics.flows) {
      if (flow.client_id != client.client_id) continue;
      worst_flow = std::max(worst_flow, flow.end_s);
      ++flows;
    }
    EXPECT_EQ(flows, static_cast<int>(client.flow_count));
    if (!client.censored) {
      EXPECT_NEAR(client.end_s, worst_flow, 1e-9);
      EXPECT_GE(client.fct_s(), 0.0);
    }
  }
}

TEST_P(SimulatorProperty, LinkCountersBalance) {
  const WorkloadConfig cfg = random_workload(GetParam());
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result.metrics.packets_forwarded + result.metrics.packets_dropped,
            result.metrics.packets_forwarded + result.metrics.packets_dropped);
  // Delivered payload bytes can never exceed forwarded wire bytes.
  double payload = 0.0;
  for (const auto& flow : result.metrics.flows) {
    if (!flow.censored) payload += flow.bytes;
  }
  // Forwarded includes headers and retransmissions, so it must dominate.
  EXPECT_GE(static_cast<double>(result.metrics.packets_forwarded) * 9000.0 * 1.01,
            payload);
}

TEST_P(SimulatorProperty, UtilizationNeverExceedsCapacity) {
  const auto result = run_experiment(random_workload(GetParam()));
  EXPECT_LE(result.metrics.peak_utilization, 1.02);  // rounding slack
  EXPECT_GE(result.metrics.peak_utilization, 0.0);
  EXPECT_LE(result.metrics.loss_rate, 1.0);
}

TEST_P(SimulatorProperty, DeterministicRerun) {
  const WorkloadConfig cfg = random_workload(GetParam());
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  ASSERT_EQ(a.metrics.flows.size(), b.metrics.flows.size());
  for (std::size_t i = 0; i < a.metrics.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics.flows[i].end_s, b.metrics.flows[i].end_s);
    EXPECT_EQ(a.metrics.flows[i].retransmits, b.metrics.flows[i].retransmits);
  }
}

TEST_P(SimulatorProperty, FluidLowerBoundsPacketWorstCase) {
  // The fluid model ignores losses, retransmissions and queues, so its
  // worst case can only be optimistic (within numerical slack) relative to
  // the TCP packet model.
  const WorkloadConfig cfg = fluid_workload(GetParam());
  const auto fluid = run_fluid_experiment(cfg);
  const auto packet = run_experiment(cfg);
  EXPECT_LE(fluid.t_worst_s(), packet.t_worst_s() * 1.10 + 0.05);
}

TEST_P(SimulatorProperty, FluidConservesBytes) {
  const WorkloadConfig cfg = fluid_workload(GetParam());
  const auto fluid = run_fluid_experiment(cfg);
  double total = 0.0;
  for (const auto& f : fluid.metrics.flows) total += f.bytes;
  const double expected =
      cfg.transfer_size.bytes() * static_cast<double>(fluid.metrics.clients.size());
  EXPECT_NEAR(total, expected, expected * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, SimulatorProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace sss::simnet
