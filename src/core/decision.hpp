// decision.hpp — the stream / file / local decision framework.
//
// Combines the completion-time model (Eqs. 3-10) with worst-case transfer
// measurements to answer the paper's title question for a concrete
// workload: process locally, stream to remote HPC, or stage files to remote
// HPC — and under which latency tier each option stays feasible
// (Section 5: Tier 1 < 1 s, Tier 2 < 10 s, Tier 3 < 1 min).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/completion.hpp"
#include "core/params.hpp"
#include "simnet/link.hpp"
#include "units/units.hpp"

namespace sss::core {

// What a multi-hop instrument -> DTN -> WAN -> HPC path looks like to the
// decision model: the effective bandwidth is the SLOWEST hop's capacity and
// the RTT is twice the summed one-way delay.  Feed the result into
// ModelParameters (via with_path) or into compute_sss so decisions are
// judged against the true end-to-end bottleneck, not any single link's
// nameplate rate.
struct PathProfile {
  units::DataRate bottleneck_bandwidth;
  units::Seconds rtt;          // 2 x summed one-way propagation delay
  std::size_t hop_count = 0;
  std::size_t bottleneck_hop = 0;
  std::string bottleneck_name;
};

// Characterize a hop sequence (e.g. Topology::canonical_route()).  Throws
// std::invalid_argument on an empty hop list.
[[nodiscard]] PathProfile profile_path(const std::vector<simnet::LinkConfig>& hops);

// Fold a path into model parameters: bandwidth becomes the path bottleneck
// (alpha and theta are measurement-calibrated and left untouched).
[[nodiscard]] ModelParameters with_path(ModelParameters params, const PathProfile& profile);

// Treats the calibrated alpha as a PER-HOP efficiency and composes it across
// `hop_count` hops of the calibrated bandwidth: writing 1/alpha = 1 + eps
// (eps = the per-hop overhead fraction), h hops in series cost
// 1/alpha_h = 1 + h*eps, i.e. alpha_h = 1 / (1 + h*(1/alpha - 1)).  A single
// hop (or 0) reproduces the calibrated alpha exactly; longer paths degrade
// the effective rate and move the local <-> remote decision boundary.  This
// is what lets a served profile calibrated on one link answer requests for
// deeper paths.
[[nodiscard]] ModelParameters with_contended_path(ModelParameters params,
                                                  std::size_t hop_count);

enum class ProcessingMode {
  kLocal,
  kRemoteStreaming,
  kRemoteFileBased,
};

[[nodiscard]] const char* to_string(ProcessingMode mode);

// Latency tiers from Section 5.
struct Tier {
  std::string name;
  units::Seconds deadline;
};

// Tier 1 (<1 s, real-time), Tier 2 (<10 s, near real-time),
// Tier 3 (<1 min, quasi real-time).
[[nodiscard]] std::vector<Tier> standard_tiers();

struct DecisionInput {
  // Parameters for the streaming option; theta is the streaming overhead
  // (1.0 for pure memory-to-memory streaming).
  ModelParameters params;
  // theta of the file-based alternative (from storage calibration); the
  // file option shares every other parameter.
  double theta_file = 2.0;
  // Measured worst-case transfer time for S_unit under current congestion
  // (from the Streaming Speed Score methodology).  When set, feasibility is
  // judged on this instead of the optimistic alpha-scaled transfer time —
  // the paper's central recommendation.
  std::optional<units::Seconds> t_worst_transfer;
  // Sustained rate the instrument generates; if it exceeds alpha * Bw the
  // link cannot keep up regardless of latency (the Liquid Scattering case).
  std::optional<units::DataRate> generation_rate;
};

struct Evaluation {
  units::Seconds t_local;
  units::Seconds t_pct_streaming;   // theta = params.theta (streaming)
  units::Seconds t_pct_file;        // theta = theta_file
  // Gain function: G = T_local / T_pct (> 1 means remote wins).
  double gain_streaming = 0.0;
  double gain_file = 0.0;
  ProcessingMode best = ProcessingMode::kLocal;
  // Set when generation_rate exceeds the effective link rate.
  bool link_saturated = false;
  // Transfer time actually used for feasibility (measured worst case when
  // provided, else model).
  units::Seconds transfer_basis;
};

[[nodiscard]] Evaluation evaluate(const DecisionInput& input);

struct TierFeasibility {
  Tier tier;
  bool local_feasible = false;
  bool streaming_feasible = false;   // worst-case transfer + remote compute
  bool file_feasible = false;
  // Time left for remote analysis after the worst-case transfer (the
  // "8.8 seconds for the analysis" of the case study); zero when the
  // transfer alone blows the deadline.
  units::Seconds streaming_compute_budget;
  // Remote rate needed to finish the unit's work within that budget.
  units::FlopsRate required_remote_rate;
};

[[nodiscard]] std::vector<TierFeasibility> tier_analysis(
    const DecisionInput& input, const std::vector<Tier>& tiers = standard_tiers());

}  // namespace sss::core
