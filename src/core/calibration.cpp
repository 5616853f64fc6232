#include "core/calibration.hpp"

#include <algorithm>
#include <stdexcept>

namespace sss::core {

CongestionProfile::CongestionProfile(std::vector<CongestionPoint> points)
    : points_(std::move(points)) {
  // Stable, so duplicated utilizations keep insertion order — the
  // interpolation contract documented in the header depends on it.
  std::stable_sort(points_.begin(), points_.end(),
                   [](const CongestionPoint& x, const CongestionPoint& y) {
                     return x.utilization < y.utilization;
                   });
}

double CongestionProfile::sss_at(double utilization) const {
  if (points_.empty()) throw std::logic_error("CongestionProfile: no points");
  if (utilization <= points_.front().utilization) return points_.front().sss;
  if (utilization >= points_.back().utilization) return points_.back().sss;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (utilization <= points_[i].utilization) {
      const auto& lo = points_[i - 1];
      const auto& hi = points_[i];
      const double span = hi.utilization - lo.utilization;
      if (span <= 0.0) return hi.sss;
      const double w = (utilization - lo.utilization) / span;
      return lo.sss + w * (hi.sss - lo.sss);
    }
  }
  return points_.back().sss;
}

units::Seconds CongestionProfile::worst_transfer_time(units::Bytes size,
                                                      units::DataRate link,
                                                      double utilization) const {
  const units::Seconds theoretical = size / link;
  return theoretical * sss_at(utilization);
}

CongestionProfile build_congestion_profile(
    const std::vector<simnet::ExperimentResult>& results) {
  std::vector<CongestionPoint> points;
  points.reserve(results.size());
  for (const auto& r : results) {
    CongestionPoint p;
    p.utilization = r.offered_load;
    p.measured_utilization = r.metrics.mean_utilization;
    p.t_worst_s = r.t_worst_s();
    p.t_theoretical_s = r.t_theoretical_s();
    p.t_mean_s = r.metrics.mean_client_fct_s();
    p.sss = p.t_theoretical_s > 0.0 ? p.t_worst_s / p.t_theoretical_s : 0.0;
    p.concurrency = r.config.concurrency;
    p.parallel_flows = r.config.parallel_flows;
    p.loss_rate = r.metrics.loss_rate;
    points.push_back(p);
  }
  return CongestionProfile(std::move(points));
}

}  // namespace sss::core
