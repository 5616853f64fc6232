#include "core/decision.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace sss::core {

PathProfile profile_path(const std::vector<simnet::LinkConfig>& hops) {
  if (hops.empty()) throw std::invalid_argument("profile_path: need at least one hop");
  PathProfile profile;
  profile.hop_count = hops.size();
  profile.bottleneck_hop = simnet::bottleneck_hop_index(hops);
  profile.bottleneck_bandwidth = hops[profile.bottleneck_hop].capacity;
  profile.bottleneck_name = hops[profile.bottleneck_hop].name;
  profile.rtt = simnet::total_propagation_delay(hops) * 2.0;
  return profile;
}

ModelParameters with_path(ModelParameters params, const PathProfile& profile) {
  params.bandwidth = profile.bottleneck_bandwidth;
  return params;
}

ModelParameters with_contended_path(ModelParameters params, std::size_t hop_count) {
  const double hops = static_cast<double>(std::max<std::size_t>(hop_count, 1));
  const double eps = 1.0 / params.alpha - 1.0;  // per-hop overhead fraction
  params.alpha = 1.0 / (1.0 + hops * eps);
  return params;
}

const char* to_string(ProcessingMode mode) {
  switch (mode) {
    case ProcessingMode::kLocal:
      return "local";
    case ProcessingMode::kRemoteStreaming:
      return "remote-streaming";
    case ProcessingMode::kRemoteFileBased:
      return "remote-file-based";
  }
  return "unknown";
}

std::vector<Tier> standard_tiers() {
  return {
      Tier{"Tier 1 (real-time)", units::Seconds::of(1.0)},
      Tier{"Tier 2 (near real-time)", units::Seconds::of(10.0)},
      Tier{"Tier 3 (quasi real-time)", units::Seconds::of(60.0)},
  };
}

Evaluation evaluate(const DecisionInput& input) {
  input.params.validate();

  Evaluation ev;
  ev.t_local = t_local(input.params);
  ev.t_pct_streaming = t_pct(input.params);

  ModelParameters file_params = input.params;
  file_params.theta = std::max(input.theta_file, 1.0);
  ev.t_pct_file = t_pct(file_params);

  ev.gain_streaming = ev.t_pct_streaming.seconds() > 0.0
                          ? ev.t_local.seconds() / ev.t_pct_streaming.seconds()
                          : 0.0;
  ev.gain_file =
      ev.t_pct_file.seconds() > 0.0 ? ev.t_local.seconds() / ev.t_pct_file.seconds() : 0.0;

  if (input.generation_rate.has_value()) {
    // Saturation against raw link capacity, as in the case study ("4 GB/s
    // (32 Gbps) would be unfeasible because it is higher than our link
    // capacity of 25 Gbps").  Efficiency alpha degrades the completion time
    // via T_transfer; it does not change the hard feasibility boundary.
    ev.link_saturated = input.generation_rate->bps() > input.params.bandwidth.bps();
  }

  ev.transfer_basis = input.t_worst_transfer.value_or(t_transfer(input.params));

  // Pick the fastest feasible option; a saturated link removes both remote
  // options (sustained operation is impossible).
  ev.best = ProcessingMode::kLocal;
  double best_time = ev.t_local.seconds();
  if (!ev.link_saturated) {
    if (ev.t_pct_streaming.seconds() < best_time) {
      ev.best = ProcessingMode::kRemoteStreaming;
      best_time = ev.t_pct_streaming.seconds();
    }
    if (ev.t_pct_file.seconds() < best_time) {
      ev.best = ProcessingMode::kRemoteFileBased;
      best_time = ev.t_pct_file.seconds();
    }
  }
  return ev;
}

std::vector<TierFeasibility> tier_analysis(const DecisionInput& input,
                                           const std::vector<Tier>& tiers) {
  input.params.validate();
  const Evaluation ev = evaluate(input);
  const units::Seconds worst_transfer = ev.transfer_basis;
  const units::Flops work = input.params.work();

  std::vector<TierFeasibility> out;
  out.reserve(tiers.size());
  for (const Tier& tier : tiers) {
    TierFeasibility tf;
    tf.tier = tier;
    tf.local_feasible = ev.t_local <= tier.deadline;

    const double budget_s = tier.deadline.seconds() - worst_transfer.seconds();
    tf.streaming_compute_budget = units::Seconds::of(std::max(budget_s, 0.0));
    if (!ev.link_saturated && budget_s > 0.0) {
      tf.required_remote_rate = work / tf.streaming_compute_budget;
      const units::Seconds remote = t_remote(input.params);
      tf.streaming_feasible = worst_transfer.seconds() + remote.seconds() +
                                  (input.params.theta - 1.0) *
                                      t_transfer(input.params).seconds() <=
                              tier.deadline.seconds();
    } else {
      tf.required_remote_rate =
          units::FlopsRate::flops(std::numeric_limits<double>::infinity());
      tf.streaming_feasible = false;
    }

    tf.file_feasible = !ev.link_saturated && ev.t_pct_file <= tier.deadline;
    out.push_back(tf);
  }
  return out;
}

}  // namespace sss::core
