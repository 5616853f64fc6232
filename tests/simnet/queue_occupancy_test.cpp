// Pins the event engine's occupancy guarantee: during a 4-hop experiment
// the simulation holds O(links + flows) pending events — one busy-heap
// entry per busy link, one lazy RTO timer per flow, and the control-plane
// start events — NOT one event per in-flight packet, which would track the
// total window (tens of thousands of packets across every hop of every
// path).
#include <gtest/gtest.h>

#include "simnet/workload.hpp"

namespace sss::simnet {
namespace {

WorkloadConfig four_hop_config() {
  WorkloadConfig cfg;
  cfg.duration = units::Seconds::of(1.0);
  cfg.concurrency = 2;
  cfg.parallel_flows = 2;
  cfg.transfer_size = units::Bytes::megabytes(100.0);
  cfg.seed = 42;
  const double gbps[] = {40.0, 25.0, 100.0, 25.0};
  for (int h = 0; h < 4; ++h) {
    LinkConfig hop;
    hop.name = "hop" + std::to_string(h);
    hop.capacity = units::DataRate::gigabits_per_second(gbps[h]);
    hop.propagation_delay = units::Seconds::millis(4.0);
    hop.buffer = units::Bytes::megabytes(32.0);
    cfg.path_hops.push_back(hop);
  }
  return cfg;
}

TEST(QueueOccupancy, FourHopExperimentStaysLinksPlusFlows) {
  const WorkloadConfig cfg = four_hop_config();
  const ExperimentResult result = run_experiment(cfg);

  // The transfer actually saturated a window: far more packets crossed the
  // path than the queue ever held at once.
  ASSERT_GT(result.metrics.packets_forwarded, 10'000u);
  ASSERT_GT(result.queue_high_water, 0u);

  // O(links + flows): 8 links (4 forward + 4 reverse) can each hold one
  // pending delivery, each flow one RTO timer and one start event, plus a
  // handful of orchestrator events.  2 clients/s x 1 s x
  // 2 flows = 4 flows -> a generous constant bound, orders of magnitude
  // below the in-flight packet count.
  EXPECT_LE(result.queue_high_water, 64u);
  EXPECT_LT(result.queue_high_water * 100, result.metrics.packets_forwarded)
      << "queue occupancy must not scale with packets in flight";
}

}  // namespace
}  // namespace sss::simnet
