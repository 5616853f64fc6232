// congestion_planner — a facility operator's planning tool: given a link,
// a data-unit size, and a latency budget, sweep operating utilizations and
// report the Streaming Speed Score, congestion regime, and the maximum
// sustainable utilization for the budget.
//
// A parameterized instance of the registered "congestion_planner"
// scenario: the CLI arguments build a custom ScenarioSpec, which runs
// through the same SweepExecutor/runner machinery as every other
// scenario.
//
// Usage:  congestion_planner [link_gbps] [unit_gb] [budget_s]
// Defaults reproduce the paper testbed: 25 Gbps, 0.5 GB, 1.0 s.
#include <cstdio>
#include <optional>

#include "scenario/runner.hpp"
#include "scenario/scenarios.hpp"
#include "trace/parse.hpp"

int main(int argc, char** argv) {
  using namespace sss;

  auto arg = [&](int i, double fallback) {
    if (argc <= i) return std::optional<double>(fallback);
    return trace::parse_double(argv[i]);
  };
  const auto link_gbps = arg(1, 25.0);
  const auto unit_gb = arg(2, 0.5);
  const auto budget_s = arg(3, 1.0);
  if (!link_gbps || *link_gbps <= 0.0 || !unit_gb || *unit_gb <= 0.0 || !budget_s ||
      *budget_s <= 0.0) {
    std::fprintf(stderr, "usage: %s [link_gbps>0] [unit_gb>0] [budget_s>0]\n", argv[0]);
    return 1;
  }

  const scenario::ScenarioSpec spec =
      scenario::make_congestion_planner_spec(*link_gbps, *unit_gb, *budget_s);
  return scenario::run_scenario(spec, scenario::RunnerOptions{});
}
