// scenarios_topology.cpp — multi-hop topology scenarios: the bottleneck as
// a first-class experimental axis.
//
//   hop_bottleneck_sweep      — the same workload over a balanced 3-hop
//                               chain, then with each hop undersized in
//                               turn; shows WHERE the path saturates, not
//                               just that it does.
//   dtn_nic_undersizing       — APS -> ALCF with the DTN NIC swept down;
//                               finds the capacity where the bottleneck
//                               migrates from the ESnet share to the NIC.
//   wan_cross_traffic         — hop-local elephant storms on the WAN
//                               backbone only; the edge and ingest hops
//                               stay clean while SSS degrades.
//   moving_bottleneck         — cross-traffic parked on the edge hop vs
//                               the WAN hop vs MOVING between them mid-run;
//                               per-hop drops show the saturation point
//                               shifting.
//   lcls_streaming_feasibility— LCLS-II -> NERSC case study: measured
//                               worst case over the 4-hop path feeds the
//                               path-aware decision model's tier verdicts.
//
// Everything except the LCLS tier table is declarative: the hop variants
// and storm schedules are tuple axes over the unified override catalog
// (hop<k>_gbps, storm<j>_*), and every row — including the per-hop CSV
// column groups (OutputSpec::hop_columns) — renders from the plan's output
// spec, which is what lets `scenario_runner --shard` split these sweeps
// across hosts.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "core/decision.hpp"
#include "core/sss_score.hpp"
#include "scenario/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenarios.hpp"
#include "simnet/topology.hpp"

namespace sss::scenario {

namespace {

using detail::fmt;

// The common foreground for the bottleneck-placement sweeps: the Table-2
// c=4 / P=4 cell (64 % offered load on a balanced 25 Gbps chain), so any
// undersized hop is pushed well past saturation.
simnet::WorkloadConfig topology_workload(const std::vector<simnet::LinkConfig>& hops) {
  simnet::WorkloadConfig cfg;
  cfg.duration = units::Seconds::of(10.0);
  cfg.concurrency = 4;
  cfg.parallel_flows = 4;
  cfg.transfer_size = units::Bytes::gigabytes(0.5);
  cfg.mode = simnet::SpawnMode::kSimultaneousBatches;
  cfg.path_hops = hops;
  return cfg;
}

ScenarioSpec hop_bottleneck_sweep_spec() {
  ScenarioSpec spec;
  spec.name = "hop_bottleneck_sweep";
  spec.title = "Hop bottleneck sweep: undersize each hop of edge->DTN->WAN->HPC in turn";
  spec.paper_ref = "extends Section 4 to multi-hop paths (ROADMAP multi-link item)";
  spec.description = "same workload, bottleneck placed at each hop; per-hop counters";
  spec.tags = {"topology", "sweep", "new"};

  const simnet::Topology topo(simnet::topology_preset("edge_dtn_wan_hpc"));
  const std::vector<simnet::LinkConfig> balanced = topo.canonical_route();
  ExperimentPlan plan;
  plan.scenario = spec.name;
  plan.base = topology_workload(balanced);
  // Variant "balanced" keeps the chain; variant h squeezes hop h to
  // 10 Gbps (160 % offered), moving the saturation point hop by hop.
  std::vector<AxisPoint> variants;
  variants.push_back({"balanced", {}});
  for (std::size_t hop = 0; hop < balanced.size(); ++hop) {
    variants.push_back({"squeeze:" + balanced[hop].name,
                        {"hop" + std::to_string(hop) + "_gbps=10"}});
  }
  plan.axes.push_back(ParamAxis::tuples("variant", std::move(variants)));
  plan.output.columns = {{"variant", "label"},
                         {"bottleneck_hop", "bottleneck_hop"},
                         {"offered_load", "offered_load"},
                         {"t_worst_s", "t_worst_s"},
                         {"sss", "sss"},
                         {"regime", "regime"}};
  plan.output.hop_columns = 3;
  plan.output.notes = {
      "reading: the worst case is set by WHICH hop saturates, not only by how "
      "much — an undersized edge NIC sheds load before the WAN queue can, so "
      "the same 10 Gbps squeeze produces different loss placement and "
      "different tails at each position."};
  spec.plan = detail::share(std::move(plan));
  return spec;
}

ScenarioSpec dtn_nic_undersizing_spec() {
  ScenarioSpec spec;
  spec.name = "dtn_nic_undersizing";
  spec.title = "DTN NIC undersizing: APS->ALCF with the detector-side NIC swept down";
  spec.paper_ref = "extends the Table-2 path (now hop-resolved: NIC/ESnet/ingest)";
  spec.description = "bottleneck migrates from the 25G ESnet share to the DTN NIC";
  spec.tags = {"topology", "sweep", "new"};

  const simnet::Topology topo(simnet::topology_preset("aps_to_alcf"));
  ExperimentPlan plan;
  plan.scenario = spec.name;
  plan.base = topology_workload(topo.canonical_route());
  plan.axes.push_back(
      ParamAxis::list("hop0_gbps", {40.0, 25.0, 15.0, 10.0, 5.0}, "nic=", "g"));
  plan.output.columns = {{"nic_gbps", "hop0_gbps"},
                         {"bottleneck_hop", "bottleneck_hop"},
                         {"path_gbps", "path_gbps"},
                         {"t_worst_s", "t_worst_s"},
                         {"sss", "sss"}};
  plan.output.hop_columns = 3;
  plan.output.notes = {
      "reading: above 25 Gbps the NIC is invisible (the ESnet share "
      "bottlenecks); below it, drops move from the WAN queue to the "
      "detector's own uplink, where no amount of WAN provisioning helps — "
      "the cross-facility sizing question is per-hop, not end-to-end."};
  spec.plan = detail::share(std::move(plan));
  return spec;
}

ScenarioSpec wan_cross_traffic_spec() {
  ScenarioSpec spec;
  spec.name = "wan_cross_traffic";
  spec.title = "WAN-hop cross traffic: elephant storms confined to the backbone hop";
  spec.paper_ref = "extends Section 6 future work (variability) to hop-local storms";
  spec.description = "hop-local background load sweep on the WAN hop only";
  spec.tags = {"topology", "sweep", "new"};

  const simnet::Topology topo(simnet::topology_preset("edge_dtn_wan_hpc"));
  ExperimentPlan plan;
  plan.scenario = spec.name;
  plan.base = topology_workload(topo.canonical_route());
  std::vector<AxisPoint> loads;
  for (const double load : {0.0, 0.25, 0.5, 0.75}) {
    AxisPoint point;
    point.label = "wan_load=" + fmt(load);
    if (load > 0.0) {
      // Storm windows are scale-1 seconds; expansion rescales them with
      // the duration.
      point.set = {"storm0_hop=1", "storm0_load=" + fmt(load), "storm0_until_s=10",
                   "storm0_mean_mb=128", "storm0_shape=1.3"};
    }
    loads.push_back(std::move(point));
  }
  plan.axes.push_back(ParamAxis::tuples("wan_load", std::move(loads)));
  plan.output.columns = {{"wan_load", "storm0_load"},
                         {"t_worst_s", "t_worst_s"},
                         {"t_mean_s", "t_mean_s"},
                         {"sss", "sss"},
                         {"path_loss", "loss_rate"}};
  plan.output.hop_columns = 3;
  plan.output.notes = {
      "reading: a storm that never touches the edge or ingest hops still "
      "sets the end-to-end worst case — the per-hop columns localize the "
      "drops to the backbone, which an end-to-end counter cannot."};
  spec.plan = detail::share(std::move(plan));
  return spec;
}

ScenarioSpec moving_bottleneck_spec() {
  ScenarioSpec spec;
  spec.name = "moving_bottleneck";
  spec.title = "Moving bottleneck: cross traffic shifts from the edge hop to the WAN mid-run";
  spec.paper_ref = "extends Section 4.1 congestion regimes to time-varying hop congestion";
  spec.description = "storm parked on edge vs WAN vs moving between them mid-run";
  spec.tags = {"topology", "sweep", "new"};

  const simnet::Topology topo(simnet::topology_preset("edge_dtn_wan_hpc"));
  ExperimentPlan plan;
  plan.scenario = spec.name;
  plan.base = topology_workload(topo.canonical_route());
  // 0.6-load elephant storms (mean 128 MB, Pareto 1.3); windows in scale-1
  // seconds over the 10 s base run.
  auto storm = [](int index, int hop, double start_s, double until_s) {
    const std::string prefix = "storm" + std::to_string(index) + "_";
    return std::vector<std::string>{
        prefix + "hop=" + std::to_string(hop), prefix + "load=0.6",
        prefix + "start_s=" + fmt(start_s), prefix + "until_s=" + fmt(until_s),
        prefix + "mean_mb=128", prefix + "shape=1.3"};
  };
  auto concat = [](std::vector<std::string> a, const std::vector<std::string>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  plan.axes.push_back(ParamAxis::tuples(
      "plan", {{"clean", {}},
               {"parked_edge", storm(0, 0, 0.0, 10.0)},
               {"parked_wan", storm(0, 1, 0.0, 10.0)},
               {"moving_edge_to_wan", concat(storm(0, 0, 0.0, 5.0), storm(1, 1, 5.0, 10.0))}}));
  plan.output.columns = {{"plan", "label"},
                         {"t_worst_s", "t_worst_s"},
                         {"t_mean_s", "t_mean_s"},
                         {"path_loss", "loss_rate"},
                         {"path_drops", "packets_dropped"}};
  plan.output.hop_columns = 3;
  plan.output.notes = {
      "reading: when the storm moves mid-run the drop columns light up on "
      "BOTH hops while each parked storm concentrates them on one — a "
      "transfer scheduler reacting to a single interface counter chases "
      "yesterday's bottleneck."};
  spec.plan = detail::share(std::move(plan));
  return spec;
}

ScenarioSpec lcls_streaming_feasibility_spec() {
  ScenarioSpec spec;
  spec.name = "lcls_streaming_feasibility";
  spec.title = "LCLS-II -> NERSC: path-aware tier feasibility from measured worst case";
  spec.paper_ref = "applies Section 5's tier analysis over the 4-hop ESnet path";
  spec.description = "measured multi-hop worst case feeds the path-aware decision model";
  spec.tags = {"topology", "case-study", "new"};

  const simnet::Topology topo(simnet::topology_preset("lcls_to_nersc_esnet"));
  ExperimentPlan plan;
  plan.scenario = spec.name;
  plan.base = topology_workload(topo.canonical_route());
  // LCLS-II burst: heavier units into a 50 Gbps ingest share.  No axes —
  // a single measured point; the tier table is an aggregate reduction.
  plan.base.transfer_size = units::Bytes::gigabytes(1.0);
  spec.plan = detail::share(std::move(plan));

  spec.analyze = [](const ScenarioContext&, const std::vector<RunPoint>&,
                    const std::vector<simnet::ExperimentResult>& results,
                    ScenarioOutput& out) {
    const auto& r = results.front();
    const auto profile = core::profile_path(r.config.effective_hops());

    core::DecisionInput input;
    input.params.s_unit = r.config.transfer_size;
    input.params = core::with_path(input.params, profile);
    input.t_worst_transfer = units::Seconds::of(r.t_worst_s());

    out.header = {"tier", "deadline_s", "streaming_ok", "compute_budget_s",
                  "required_tflops"};
    for (const auto& tf : core::tier_analysis(input)) {
      out.add_row({tf.tier.name, fmt(tf.tier.deadline.seconds()),
                   tf.streaming_feasible ? "yes" : "no",
                   fmt(tf.streaming_compute_budget.seconds()),
                   fmt(tf.required_remote_rate.tflops())});
    }
    out.add_note("path: " + std::to_string(profile.hop_count) + " hops, bottleneck '" +
                 profile.bottleneck_name + "' at " +
                 fmt(profile.bottleneck_bandwidth.gbit_per_s()) + " Gbps, rtt " +
                 fmt(profile.rtt.ms()) + " ms; measured t_worst " + fmt(r.t_worst_s()) +
                 " s for " + fmt(r.config.transfer_size.gb()) + " GB units.");
    out.add_note(
        "reading: judged against the slowest hop and the measured worst case, "
        "the feasible tier is one notch worse than the backbone's nameplate "
        "rate suggests — the ingest share, not the 100G hops, writes the "
        "verdict.");
  };
  return spec;
}

}  // namespace

void register_topology_scenarios(ScenarioRegistry& registry) {
  registry.add(hop_bottleneck_sweep_spec());
  registry.add(dtn_nic_undersizing_spec());
  registry.add(wan_cross_traffic_spec());
  registry.add(moving_bottleneck_spec());
  registry.add(lcls_streaming_feasibility_spec());
}

}  // namespace sss::scenario
