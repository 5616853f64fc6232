// scenarios_case_studies.cpp — Table 3 / Section 5 case studies, the
// Fig. 4 streaming-vs-file comparison, and the headline-claims check as
// registry scenarios.  The measurement grids are declarative plans
// (Table-2 slices); every table here is an aggregate reduction (congestion
// profiles, paired claims), so the analyze hooks stay custom.  Fig. 4 is
// fully analytic: no plan — the explicit analyze-only escape hatch.
#include <cstdio>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/decision.hpp"
#include "core/report.hpp"
#include "core/sss_score.hpp"
#include "detector/facility.hpp"
#include "scenario/common.hpp"
#include "scenario/overrides.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenarios.hpp"
#include "storage/staged_obs.hpp"
#include "storage/staged_transfer.hpp"
#include "storage/stream_transfer.hpp"

namespace sss::scenario {

namespace {

using detail::fmt;

// The Section 5 extrapolation shared by the Table-3 and steering
// scenarios: evaluate one workflow window against a measured congestion
// profile at the workflow's utilization.  `complexity_basis` is the byte
// volume the per-second analysis figure is spread over: the native-rate
// window for Table 3 (a reduced feed still represents a full window of
// acquisition), the effective-rate window for the steering fallback —
// matching the respective pre-migration benches.
core::DecisionInput workflow_decision(const core::CongestionProfile& profile,
                                      const detector::WorkflowProfile& workflow,
                                      units::DataRate effective_rate,
                                      units::DataRate link, units::Seconds window,
                                      units::Bytes complexity_basis) {
  const double utilization = effective_rate.bps() / link.bps();
  const units::Bytes unit = effective_rate * window;
  core::DecisionInput input;
  input.params.s_unit = unit;
  input.params.complexity = units::Complexity::flop_per_byte(
      workflow.offline_analysis.flop() / complexity_basis.bytes());
  // Local resources at a beamline are modest; remote HPC is sized to the
  // offline-analysis requirement.
  input.params.r_local = units::FlopsRate::teraflops(2.0);
  input.params.r_remote = units::FlopsRate::teraflops(40.0);
  input.params.bandwidth = link;
  input.params.alpha = 0.9;
  input.generation_rate = effective_rate;
  if (utilization <= 1.0) {
    input.t_worst_transfer = profile.worst_transfer_time(unit, link, utilization);
  }
  return input;
}

ScenarioSpec table3_spec() {
  ScenarioSpec spec;
  spec.name = "table3_case_study";
  spec.title = "Table 3 + Section 5 case study: LCLS-II workflows under tiers";
  spec.paper_ref = "Table 3 (adapted from Thayer et al.), Section 5";
  spec.description = "LCLS-II workflow tier feasibility from a measured congestion profile";
  spec.tags = {"case-study", "sweep"};
  // Congestion profile measured with simultaneous batches at P = 4.
  spec.plan = detail::share(detail::table2_plan(
      spec.name, simnet::SpawnMode::kSimultaneousBatches, {4}, 8));
  spec.analyze = [](const ScenarioContext&, const std::vector<RunPoint>&,
                    const std::vector<simnet::ExperimentResult>& results,
                    ScenarioOutput& out) {
    const core::CongestionProfile profile = core::build_congestion_profile(results);
    out.add_note(core::render_profile(profile));

    const units::DataRate link = units::DataRate::gigabits_per_second(25.0);
    const units::Seconds window = units::Seconds::of(1.0);  // 1-second aggregation

    struct Case {
      detector::WorkflowProfile workflow;
      units::DataRate effective_rate;  // after any feasibility reduction
      const char* note;
    };
    // Liquid scattering is evaluated twice, as in the paper: at its native
    // 4 GB/s (infeasible: 32 Gbps > 25 Gbps) and reduced to 3 GB/s (96 %).
    std::vector<Case> cases;
    cases.push_back({detector::coherent_scattering(),
                     detector::coherent_scattering().throughput, ""});
    cases.push_back({detector::liquid_scattering(),
                     detector::liquid_scattering().throughput, "native 4 GB/s"});
    Case reduced{detector::liquid_scattering(),
                 units::DataRate::gigabytes_per_second(3.0), "reduced to 3 GB/s"};
    reduced.workflow.name += " (reduced)";
    cases.push_back(reduced);

    out.header = {"workflow", "utilization", "t_worst_s",      "tier1", "tier2",
                  "tier3",    "tier2_budget_s", "required_tflops"};
    auto yn = [](bool b) { return std::string(b ? "yes" : "no"); };
    for (const auto& c : cases) {
      const double utilization = c.effective_rate.bps() / link.bps();
      core::DecisionInput input =
          workflow_decision(profile, c.workflow, c.effective_rate, link, window,
                            c.workflow.bytes_per_window(window));
      const auto ev = core::evaluate(input);
      const auto tiers = core::tier_analysis(input);
      const double t_worst =
          input.t_worst_transfer ? input.t_worst_transfer->seconds() : -1.0;
      std::string needs = "-";
      if (tiers[1].streaming_compute_budget.seconds() > 0.0 && !ev.link_saturated) {
        needs = units::to_string(tiers[1].required_remote_rate);
      }
      out.add_row({c.workflow.name, fmt(utilization),
                   ev.link_saturated ? "saturated" : fmt(t_worst),
                   yn(tiers[0].streaming_feasible), yn(tiers[1].streaming_feasible),
                   yn(tiers[2].streaming_feasible),
                   fmt(tiers[1].streaming_compute_budget.seconds()), needs});

      core::WorkflowReportInput report;
      report.workflow_name =
          c.workflow.name + (c.note[0] ? std::string(" [") + c.note + "]" : std::string());
      report.decision = input;
      out.add_note(core::render_report(report));
    }
    out.add_note(
        "paper comparison: coherent scattering ~1.2 s worst case at 64% "
        "(Tier 2 ok, 8.8 s budget); liquid scattering saturated at 4 GB/s, "
        "~6 s worst case at 3 GB/s (4 s budget)");
  };
  return spec;
}

ScenarioSpec lcls2_steering_spec() {
  ScenarioSpec spec;
  spec.name = "lcls2_steering";
  spec.title = "LCLS-II experimental steering feasibility (Section 5 case study)";
  spec.paper_ref = "Section 5, Table 3 workflows under the three latency tiers";
  spec.description = "measure congestion, then judge both Table-3 workflows for steering";
  spec.tags = {"case-study", "sweep", "example"};
  // The original example used a 0.2x sweep; ScenarioContext::scale composes
  // on top of the shortened base duration.
  ExperimentPlan steering_plan = detail::table2_plan(
      spec.name, simnet::SpawnMode::kSimultaneousBatches, {4}, 8);
  steering_plan.base.duration = steering_plan.base.duration * 0.2;
  spec.plan = detail::share(std::move(steering_plan));
  spec.analyze = [](const ScenarioContext&, const std::vector<RunPoint>&,
                    const std::vector<simnet::ExperimentResult>& results,
                    ScenarioOutput& out) {
    const core::CongestionProfile profile = core::build_congestion_profile(results);
    out.add_note(core::render_profile(profile));

    const units::DataRate link = units::DataRate::gigabits_per_second(25.0);
    const units::Seconds window = units::Seconds::of(1.0);

    out.header = {"workflow", "utilization", "best_mode", "gain_streaming"};
    auto evaluate_case = [&](const detector::WorkflowProfile& workflow,
                             units::DataRate rate, const std::string& label) {
      core::DecisionInput input =
          workflow_decision(profile, workflow, rate, link, window, rate * window);
      const auto ev = core::evaluate(input);
      out.add_row({label, fmt(rate.bps() / link.bps()), core::to_string(ev.best),
                   fmt(ev.gain_streaming)});
      core::WorkflowReportInput report;
      report.workflow_name = label;
      report.decision = input;
      out.add_note(core::render_report(report));
    };

    for (const auto& workflow : detector::table3_workflows()) {
      evaluate_case(workflow, workflow.throughput, workflow.name);
    }
    // The paper's liquid-scattering fallback: reduced to 3 GB/s (96 %).
    evaluate_case(detector::liquid_scattering(),
                  units::DataRate::gigabytes_per_second(3.0),
                  "Liquid Scattering (reduced to 3 GB/s)");
  };
  return spec;
}

ScenarioSpec fig4_spec() {
  ScenarioSpec spec;
  spec.name = "fig4_file_vs_stream";
  spec.title = "Figure 4: streaming vs file-based transfer, APS Voyager -> ALCF Eagle";
  spec.paper_ref = "Section 4.2 (1,440 x 2048x2048x2B frames ~ 12.6 GB)";
  spec.description = "analytic streaming-vs-file comparison at two frame rates";
  spec.tags = {"figure", "analytic"};
  spec.analyze = [](const ScenarioContext& ctx, const std::vector<RunPoint>&,
                    const std::vector<simnet::ExperimentResult>&, ScenarioOutput& out) {
    // Analytic scenario: no RunPoints to carry --param overrides, so pull
    // the storage knobs (zipf_skew et al.) off the shared binding table
    // directly.  Run-level keys (substrate=...) don't apply here.
    simnet::WorkloadConfig knobs;
    for (const std::string& kv : ctx.param_overrides) {
      if (kv.rfind("substrate=", 0) == 0) continue;
      (void)apply_param_override(knobs, kv);
    }
    storage::StagedTransferConfig staged_cfg;  // GPFS -> WAN -> Lustre presets
    staged_cfg.object_popularity_skew = knobs.storage.zipf_skew;
    storage::StreamTransferConfig stream_cfg;
    stream_cfg.wan_bandwidth = staged_cfg.wan.bandwidth;
    stream_cfg.efficiency = staged_cfg.wan.efficiency;

    out.header = {"seconds_per_frame", "method", "file_count",
                  "total_s",           "ratio_to_stream", "theta"};
    for (double spf : {0.033, 0.33}) {
      const auto scan = detector::aps_scan(units::Seconds::of(spf));
      const auto stream = storage::simulate_stream(stream_cfg, scan);
      out.add_row({fmt(spf), "streaming", "0", fmt(stream.total_s), "1", fmt(stream.theta())});
      for (std::uint64_t files : {1440ull, 144ull, 10ull, 1ull}) {
        const auto staged = storage::simulate_staged(staged_cfg, scan, files);
        out.add_row({fmt(spf), "file-based", fmt(files), fmt(staged.total_s),
                     fmt(staged.total_s / stream.total_s), fmt(staged.theta())});
        if (ctx.timeline != nullptr) {
          // Analytic scenarios have no grid cells, so --timeline renders
          // every staged variant: one summary track plus per-file tracks.
          storage::append_staged_timeline(
              *ctx.timeline, staged,
              "staged spf=" + fmt(spf) + " files=" + fmt(files));
        }
      }
    }

    const auto fast_scan = detector::aps_scan(units::Seconds::of(0.033));
    const double stream_fast = storage::simulate_stream(stream_cfg, fast_scan).total_s;
    const double file_worst = storage::simulate_staged(staged_cfg, fast_scan, 1440).total_s;
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "shape check: at 0.033 s/frame streaming cuts completion by %.1f%% vs "
                  "the 1,440-file case (paper: up to 97%%)",
                  (1.0 - stream_fast / file_worst) * 100.0);
    out.add_note(buf);
  };
  return spec;
}

ScenarioSpec headline_claims_spec() {
  ScenarioSpec spec;
  spec.name = "headline_claims";
  spec.title = "Headline claims: 97% reduction; >10x congestion inflation";
  spec.paper_ref = "Abstract, Sections 1 and 6";
  spec.description = "checks the paper's two headline numbers against this reproduction";
  spec.tags = {"case-study", "sweep"};
  spec.plan = detail::share(detail::table2_plan(
      spec.name, simnet::SpawnMode::kSimultaneousBatches, {8}, 8));
  spec.analyze = [](const ScenarioContext&, const std::vector<RunPoint>&,
                    const std::vector<simnet::ExperimentResult>& results,
                    ScenarioOutput& out) {
    out.header = {"claim", "paper", "measured", "holds"};

    // --- Claim 1: completion-time reduction at high data rates -----------
    storage::StagedTransferConfig staged_cfg;
    storage::StreamTransferConfig stream_cfg;
    stream_cfg.wan_bandwidth = staged_cfg.wan.bandwidth;
    stream_cfg.efficiency = staged_cfg.wan.efficiency;
    const auto scan = detector::aps_scan(units::Seconds::of(0.033));
    const double stream_s = storage::simulate_stream(stream_cfg, scan).total_s;
    const double file_s = storage::simulate_staged(staged_cfg, scan, 1440).total_s;
    const double reduction = (1.0 - stream_s / file_s) * 100.0;
    out.add_row({"reduction_pct", "97", fmt(reduction), reduction >= 90.0 ? "yes" : "no"});

    // --- Claim 2: worst-case congestion inflation -------------------------
    double max_sss = 0.0;
    double worst_s = 0.0;
    for (const auto& r : results) {
      const auto score = core::compute_sss(units::Seconds::of(r.t_worst_s()),
                                           r.config.transfer_size,
                                           r.config.bottleneck_capacity());
      if (score.value() > max_sss) {
        max_sss = score.value();
        worst_s = r.t_worst_s();
      }
    }
    out.add_row({"inflation_x", "10", fmt(max_sss), max_sss > 10.0 ? "yes" : "no"});

    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "claim 1: %.1f%% reduction (%.1f s streamed vs %.1f s staged); "
                  "claim 2: %.1fx inflation (%.2f s vs 0.16 s theoretical)",
                  reduction, stream_s, file_s, max_sss, worst_s);
    out.add_note(buf);
  };
  return spec;
}

}  // namespace

void register_case_study_scenarios(ScenarioRegistry& registry) {
  registry.add(table3_spec());
  registry.add(lcls2_steering_spec());
  registry.add(fig4_spec());
  registry.add(headline_claims_spec());
}

}  // namespace sss::scenario
