#include "serve/decide.hpp"

#include <algorithm>
#include <cmath>

#include "core/decision.hpp"

namespace sss::serve {

DecideResponse decide(const ServiceSnapshot& snapshot, const DecideRequest& request) {
  DecideResponse response;
  response.profile_generation = snapshot.generation();
  response.path_hops = request.path_hops;

  if (snapshot.empty()) {
    response.status = static_cast<std::uint32_t>(ErrorCode::kEmptySnapshot);
    return response;
  }
  const FacilityProfile* facility = snapshot.find(request.facility);
  if (facility == nullptr) {
    response.status = static_cast<std::uint32_t>(ErrorCode::kUnknownFacility);
    return response;
  }
  if (!std::isfinite(request.operating_utilization) ||
      request.operating_utilization < 0.0 || request.path_hops > kMaxPathHops ||
      request.transfer_size_bytes > kMaxTransferSizeBytes) {
    response.status = static_cast<std::uint32_t>(ErrorCode::kMalformedRequest);
    return response;
  }

  // 0 means "use the profile's calibrated operating point"; anything else is
  // the caller's live utilization estimate, clamped to the measured range
  // the same way CongestionProfile::sss_at clamps (no extrapolation — the
  // flag tells the caller their operating point was outside calibration).
  double utilization = request.operating_utilization > 0.0
                           ? request.operating_utilization
                           : facility->operating_utilization;
  const auto& points = facility->profile.points();
  const double u_min = points.front().utilization;
  const double u_max = points.back().utilization;
  const double clamped = std::clamp(utilization, u_min, u_max);
  if (clamped != utilization) response.flags |= kFlagUtilizationClamped;
  utilization = clamped;
  response.operating_utilization = utilization;

  core::ModelParameters params = facility->params;
  if (request.transfer_size_bytes > 0) {
    params.s_unit = units::Bytes::of(static_cast<double>(request.transfer_size_bytes));
  }

  // path_hops prices the request's path depth into the profile: the
  // calibrated alpha is treated as per-hop efficiency and composed across
  // that many hops of the calibrated bandwidth (with_contended_path), so a
  // 4-hop request sees a slower effective rate than the 1-hop calibration
  // and the local <-> stream boundary moves accordingly.  0 (or 1) means
  // "the calibrated path".
  const std::uint32_t hops = std::max<std::uint32_t>(request.path_hops, 1);
  if (hops > 1) params = core::with_contended_path(params, hops);

  // The paper's central recommendation: judge feasibility on the measured
  // worst case, not the optimistic alpha-scaled time.  SSS(u) * S / Bw is
  // exactly the Section 5 extrapolation the profile was calibrated for.
  // The congestion excess over the theoretical time scales with path depth
  // too: each extra hop is one more queue the worst case can hit.
  units::Seconds t_worst =
      facility->profile.worst_transfer_time(params.s_unit, params.bandwidth, utilization);
  if (hops > 1) {
    const double t_th = (params.s_unit / params.bandwidth).seconds();
    const double excess = std::max(t_worst.seconds() - t_th, 0.0);
    t_worst = units::Seconds::of(t_th + static_cast<double>(hops) * excess);
  }

  core::DecisionInput input;
  input.params = params;
  input.params.theta = 1.0;                                // pure streaming
  input.theta_file = std::max(facility->params.theta, 1.0); // trace-fitted staging
  input.t_worst_transfer = t_worst;
  const core::Evaluation ev = core::evaluate(input);

  response.status = 0;
  switch (ev.best) {
    case core::ProcessingMode::kLocal:
      response.decision = WireDecision::kLocal;
      break;
    case core::ProcessingMode::kRemoteStreaming:
      response.decision = WireDecision::kStream;
      break;
    case core::ProcessingMode::kRemoteFileBased:
      response.decision = WireDecision::kStage;
      break;
  }
  response.t_stream_s = ev.t_pct_streaming.seconds();
  response.t_stage_s = ev.t_pct_file.seconds();
  response.t_local_s = ev.t_local.seconds();
  response.t_worst_transfer_s = t_worst.seconds();
  response.sss = facility->profile.sss_at(utilization);
  return response;
}

}  // namespace sss::serve
