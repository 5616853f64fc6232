// facility_scenarios_test.cpp — the facility-contention acceptance pins:
//
//   1. POLICY MATTERS: on the committed facility_policy_matrix grid,
//      fair-share admission strictly improves the worst tenant's p99
//      slowdown (and Jain fairness) over FIFO on the same cell.
//   2. DETERMINISM: the facility sweep is byte-identical at 1 and N
//      executor threads (per-cell RNG streams, no cross-cell state).
//   3. NORMALIZATION: a path_hops chain and the same preset topology with
//      one default tenant describe the same world, so they run
//      client-for-client identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "simnet/topology.hpp"
#include "simnet/workload.hpp"

namespace sss::scenario {
namespace {

std::size_t column_index(const ScenarioOutput& output, const std::string& name) {
  const auto it = std::find(output.header.begin(), output.header.end(), name);
  EXPECT_NE(it, output.header.end()) << "missing column " << name;
  return static_cast<std::size_t>(it - output.header.begin());
}

const std::vector<std::string>& row_labeled(const ScenarioOutput& output,
                                            const std::string& label) {
  for (const auto& row : output.rows) {
    if (!row.empty() && row[0] == label) return row;
  }
  ADD_FAILURE() << "no row labeled " << label;
  static const std::vector<std::string> empty;
  return empty;
}

TEST(FacilityScenarios, FairShareImprovesWorstTenantP99OverFifoAndRunsAreThreadCountInvariant) {
  register_builtin_scenarios();
  const ScenarioSpec* spec = ScenarioRegistry::global().find("facility_policy_matrix");
  ASSERT_NE(spec, nullptr);

  ScenarioContext ctx;
  ctx.scale = 0.1;
  ctx.seed = 42;
  ctx.threads = 1;
  const ScenarioOutput serial = execute_scenario(*spec, ctx);

  // Determinism across executor thread counts: same header, same bytes in
  // every cell.
  ctx.threads = 4;
  const ScenarioOutput threaded = execute_scenario(*spec, ctx);
  EXPECT_EQ(serial.header, threaded.header);
  ASSERT_EQ(serial.rows.size(), threaded.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i], threaded.rows[i]) << "row " << i;
  }

  // The acceptance pin: fair-share beats FIFO for the worst tenant on the
  // same grid (identical workload, identical per-cell RNG streams — only
  // the admission discipline differs).
  const std::size_t worst_col = column_index(serial, "worst_tenant_p99_slowdown");
  const std::size_t jain_col = column_index(serial, "jain_fairness");
  const std::vector<std::string>& fifo = row_labeled(serial, "fifo");
  const std::vector<std::string>& fair = row_labeled(serial, "fair");
  ASSERT_GT(fifo.size(), worst_col);
  ASSERT_GT(fair.size(), worst_col);
  const double fifo_worst = std::stod(fifo[worst_col]);
  const double fair_worst = std::stod(fair[worst_col]);
  EXPECT_LT(fair_worst, fifo_worst)
      << "fair-share should improve the worst tenant's p99 slowdown";
  EXPECT_GT(std::stod(fair[jain_col]), std::stod(fifo[jain_col]))
      << "fair-share should improve Jain fairness";
}

// The normalization pin: a path_hops chain, and the same preset topology
// ("aps_to_alcf", a pure chain) with one declared all-defaults tenant and no
// admission policy, normalize to the same world.  They must run exactly
// alike — same clients, same timings, same hop counters, same event count.
TEST(FacilityScenarios, PathHopsChainMatchesPresetTopologyWithOneDefaultTenant) {
  simnet::WorkloadConfig chain;
  chain.duration = units::Seconds::of(2.0);
  chain.concurrency = 2;
  chain.parallel_flows = 2;
  chain.transfer_size = units::Bytes::megabytes(64.0);
  chain.mode = simnet::SpawnMode::kSimultaneousBatches;
  chain.seed = 7;
  chain.path_hops = simnet::Topology(simnet::topology_preset("aps_to_alcf")).canonical_route();

  simnet::WorkloadConfig preset = chain;
  preset.path_hops.clear();
  preset.topology = "aps_to_alcf";
  preset.tenants.push_back(simnet::TenantSpec{});  // all-defaults tenant

  const simnet::ExperimentResult a = simnet::run_experiment(chain);
  const simnet::ExperimentResult b = simnet::run_experiment(preset);

  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.metrics.packets_dropped, b.metrics.packets_dropped);
  EXPECT_EQ(a.metrics.packets_forwarded, b.metrics.packets_forwarded);
  EXPECT_EQ(a.metrics.mean_utilization, b.metrics.mean_utilization);
  EXPECT_EQ(a.metrics.peak_utilization, b.metrics.peak_utilization);

  ASSERT_EQ(a.metrics.hops.size(), b.metrics.hops.size());
  for (std::size_t h = 0; h < a.metrics.hops.size(); ++h) {
    EXPECT_EQ(a.metrics.hops[h].name, b.metrics.hops[h].name) << "hop " << h;
    EXPECT_EQ(a.metrics.hops[h].packets_forwarded, b.metrics.hops[h].packets_forwarded)
        << "hop " << h;
    EXPECT_EQ(a.metrics.hops[h].packets_dropped, b.metrics.hops[h].packets_dropped)
        << "hop " << h;
  }

  ASSERT_EQ(a.metrics.clients.size(), b.metrics.clients.size());
  for (std::size_t i = 0; i < a.metrics.clients.size(); ++i) {
    const simnet::ClientRecord& x = a.metrics.clients[i];
    const simnet::ClientRecord& y = b.metrics.clients[i];
    EXPECT_EQ(x.client_id, y.client_id);
    EXPECT_EQ(x.requested_s, y.requested_s) << "client " << i;
    EXPECT_EQ(x.start_s, y.start_s) << "client " << i;
    EXPECT_EQ(x.end_s, y.end_s) << "client " << i;
    EXPECT_EQ(x.bytes, y.bytes) << "client " << i;
    EXPECT_EQ(x.flow_count, y.flow_count) << "client " << i;
    EXPECT_EQ(x.censored, y.censored) << "client " << i;
    EXPECT_EQ(y.tenant, 0);  // one tenant: everything is tenant 0
  }
}

}  // namespace
}  // namespace sss::scenario
