// scenarios_figures.cpp — Fig. 2(a), Fig. 2(b), and Fig. 3 as registry
// scenarios.  These are the paper's congestion measurements: the Table-2
// grid (P in {2,4,8}, concurrency 1..8) under simultaneous or scheduled
// spawning, reduced to worst-case transfer times, SSS values, and the
// pooled FCT distribution.
//
// Fig. 2(a)/2(b) render their tables declaratively from the plan's output
// spec (one row per run — which also makes them shardable) and add the
// aggregate shape-check notes in `annotate`; Fig. 3 pools every client FCT
// across the whole sweep, so its reduction stays a custom `analyze`.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "scenario/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenarios.hpp"
#include "stats/cdf.hpp"
#include "stats/histogram.hpp"
#include "trace/table.hpp"

namespace sss::scenario {

namespace {

using detail::fmt;

// The network the run simulated: its bottleneck hop's capacity and buffer
// and its canonical route's RTT.
std::string testbed_note(const simnet::WorkloadConfig& cfg, double scale) {
  const simnet::World world = simnet::normalize(cfg);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "testbed: %.0f Gbps link, %.0f ms RTT, %.0f MB drop-tail buffer, "
                "0.5 GB per client, duration %.1f s x scale %.2f\n"
                "theoretical transfer time (0.5 GB @ 25 Gbps): %.3f s",
                world.bottleneck().capacity.gbit_per_s(), world.rtt().ms(),
                world.bottleneck().buffer.mb(), cfg.duration.seconds() / scale, scale,
                cfg.theoretical_transfer_time().seconds());
  return buf;
}

ScenarioSpec fig2a_spec() {
  ScenarioSpec spec;
  spec.name = "fig2a_simultaneous";
  spec.title = "Figure 2(a): max transfer time vs load, simultaneous batches";
  spec.paper_ref = "Section 4.1, Table 1 + Table 2 configuration";
  spec.description = "worst-case transfer time vs load, simultaneous batch spawning";
  spec.tags = {"figure", "sweep"};

  ExperimentPlan plan = detail::table2_plan(
      spec.name, simnet::SpawnMode::kSimultaneousBatches, {2, 4, 8}, 8);
  plan.output.columns = {{"parallel_flows", "parallel_flows"},
                         {"concurrency", "concurrency"},
                         {"offered_load", "offered_load"},
                         {"measured_utilization", "measured_utilization"},
                         {"t_worst_s", "t_worst_s"},
                         {"t_mean_s", "t_mean_s"},
                         {"sss", "sss"},
                         {"regime", "regime"},
                         {"loss_rate", "loss_rate"},
                         {"retransmits", "retransmits"}};
  spec.plan = detail::share(std::move(plan));

  spec.annotate = [](const ScenarioContext& ctx, const std::vector<RunPoint>& runs,
                     const std::vector<simnet::ExperimentResult>& results,
                     ScenarioOutput& out) {
    if (!runs.empty()) out.add_note(testbed_note(runs.front().config, ctx.scale));
    // Shape check the paper's narrative: knee above ~90 % utilization.
    double worst_low = 0.0, worst_high = 0.0;
    for (const auto& r : results) {
      if (r.offered_load <= 0.5) worst_low = std::max(worst_low, r.t_worst_s());
      if (r.offered_load >= 0.9) worst_high = std::max(worst_high, r.t_worst_s());
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "shape check: worst case at <=50%% load %.3f s; at >=90%% load %.3f s "
                  "(inflation %.1fx)",
                  worst_low, worst_high, worst_low > 0.0 ? worst_high / worst_low : 0.0);
    out.add_note(buf);
  };
  return spec;
}

ScenarioSpec fig2b_spec() {
  ScenarioSpec spec;
  spec.name = "fig2b_scheduled";
  spec.title = "Figure 2(b): max transfer time vs load, scheduled batches";
  spec.paper_ref = "Section 4.1 (reserved/scheduled transfer slots)";
  spec.description = "worst-case transfer time vs load, evenly slotted spawning";
  spec.tags = {"figure", "sweep"};

  ExperimentPlan plan =
      detail::table2_plan(spec.name, simnet::SpawnMode::kScheduled, {2, 4, 8}, 8);
  plan.output.columns = {{"parallel_flows", "parallel_flows"},
                         {"concurrency", "concurrency"},
                         {"offered_load", "offered_load"},
                         {"t_worst_s", "t_worst_s"},
                         {"t_mean_s", "t_mean_s"},
                         {"sss", "sss"},
                         {"within_budget", "within_1s_budget"}};
  spec.plan = detail::share(std::move(plan));

  spec.annotate = [](const ScenarioContext&, const std::vector<RunPoint>&,
                     const std::vector<simnet::ExperimentResult>& results,
                     ScenarioOutput& out) {
    int sustainable_cells = 0;
    int within_budget = 0;
    for (const auto& r : results) {
      if (r.offered_load <= 0.97) {
        ++sustainable_cells;
        if (r.t_worst_s() <= 1.0) ++within_budget;
      }
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "shape check: %d/%d sustainable-load cells within the 1 s budget "
                  "(paper: all; measured 0.2 s vs 0.16 s theoretical)",
                  within_budget, sustainable_cells);
    out.add_note(buf);
  };
  return spec;
}

ScenarioSpec fig3_spec() {
  ScenarioSpec spec;
  spec.name = "fig3_cdf";
  spec.title = "Figure 3: CDF of total transfer time (all transfers)";
  spec.paper_ref = "Section 4.1 (long-tail behaviour, P90/P99 blow-up)";
  spec.description = "pooled client FCT distribution across the simultaneous sweep";
  spec.tags = {"figure", "sweep"};
  // The grid is declarative; the table is an all-run pooled CDF, so the
  // reduction stays a custom analyze (no per-run rows to shard).
  spec.plan = detail::share(detail::table2_plan(
      spec.name, simnet::SpawnMode::kSimultaneousBatches, {2, 4, 8}, 8));
  spec.analyze = [](const ScenarioContext&, const std::vector<RunPoint>&,
                    const std::vector<simnet::ExperimentResult>& results,
                    ScenarioOutput& out) {
    std::vector<double> fct;
    for (const auto& r : results) {
      for (const auto& c : r.metrics.clients) fct.push_back(c.fct_s());
    }
    stats::EmpiricalCdf cdf(std::move(fct));
    out.header = {"percentile", "t_s", "ratio_to_median"};
    const double median = cdf.quantile(0.5);
    for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00}) {
      const double v = cdf.quantile(q);
      out.add_row({fmt(q), fmt(v), fmt(median > 0.0 ? v / median : 0.0)});
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "pooled transfers: %zu", cdf.size());
    out.add_note(buf);
    std::snprintf(buf, sizeof(buf),
                  "tail ratios: P90/P50 = %.2f, P99/P50 = %.2f, max/P50 = %.2f",
                  cdf.tail_ratio(0.90, 0.5), cdf.tail_ratio(0.99, 0.5),
                  cdf.tail_ratio(1.0, 0.5));
    out.add_note(buf);
    stats::LogHistogram hist(0.05, std::max(10.0, cdf.max() * 1.1), 6);
    for (double v : cdf.sorted()) hist.add(v);
    out.add_note("distribution (log-spaced bins):\n" + hist.render(48));
    std::snprintf(buf, sizeof(buf),
                  "shape check: P99 inflation over median should be non-linear (>2x) — "
                  "measured %.2fx",
                  cdf.tail_ratio(0.99, 0.5));
    out.add_note(buf);
  };
  return spec;
}

}  // namespace

void register_figure_scenarios(ScenarioRegistry& registry) {
  registry.add(fig2a_spec());
  registry.add(fig2b_spec());
  registry.add(fig3_spec());
}

}  // namespace sss::scenario
