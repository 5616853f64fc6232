// calibration.hpp — turning measurements into model parameters.
//
// The paper's methodology (Section 4) parameterizes the model from
// controlled congestion experiments: run the orchestrator at several load
// levels, take the maximum client transfer time per level as T_worst, and
// form the Streaming Speed Score against the theoretical minimum.  This
// module packages those steps:
//
//   sweep results --> CongestionProfile (utilization -> SSS curve)
//                 --> worst-case transfer predictions for other unit sizes
//
// Fitting alpha / theta from measured transfer traces is core/fitting.hpp.
//
// The case study (Section 5) extrapolates exactly this way: measured SSS at
// 64 % / 96 % utilization scales the 2 GB and 3 GB windows to 1.2 s and 6 s
// worst-case transfer times.
#pragma once

#include <vector>

#include "core/sss_score.hpp"
#include "simnet/workload.hpp"
#include "units/units.hpp"

namespace sss::core {

struct CongestionPoint {
  double utilization = 0.0;     // offered load as a fraction of capacity
  double measured_utilization = 0.0;
  double t_worst_s = 0.0;
  double t_theoretical_s = 0.0;
  double t_mean_s = 0.0;        // mean NETWORK transfer time (staging excluded)
  // Mean stage-in/stage-out overhead per transfer at this level; 0 for
  // pure-streaming measurements (every simulated sweep).  Feeds the theta
  // channel of core/fitting.hpp.
  double t_io_s = 0.0;
  double sss = 0.0;
  int concurrency = 0;
  int parallel_flows = 0;
  double loss_rate = 0.0;
};

// SSS as a function of utilization, assembled from experiment results.
//
// Interpolation contract (pinned by tests/core/calibration_test.cpp):
//   - construction stable-sorts by utilization, so points sharing a
//     utilization keep their insertion order;
//   - sss_at interpolates linearly between neighbors and clamps to the
//     first/last point outside the measured range (no extrapolation);
//   - a single-point profile is the constant function of that point;
//   - at a duplicated utilization sss_at returns the FIRST duplicate's
//     value; immediately above it, interpolation continues from the LAST
//     duplicate (the curve jumps across the tie);
//   - an empty profile has no curve: sss_at and worst_transfer_time both
//     throw std::logic_error.
class CongestionProfile {
 public:
  CongestionProfile() = default;
  explicit CongestionProfile(std::vector<CongestionPoint> points);

  // Linear interpolation of SSS at `utilization`, clamped to the measured
  // range (no extrapolation beyond the worst measured point).
  [[nodiscard]] double sss_at(double utilization) const;
  // Predicted worst-case transfer time for a unit of `size` on `link` at
  // `utilization`: SSS(u) * size / link  (the Section 5 extrapolation).
  [[nodiscard]] units::Seconds worst_transfer_time(units::Bytes size,
                                                   units::DataRate link,
                                                   double utilization) const;

  [[nodiscard]] const std::vector<CongestionPoint>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }

 private:
  std::vector<CongestionPoint> points_;  // stable-sorted by utilization
};

// One profile point per experiment (keyed by offered load).
[[nodiscard]] CongestionProfile build_congestion_profile(
    const std::vector<simnet::ExperimentResult>& results);

}  // namespace sss::core
