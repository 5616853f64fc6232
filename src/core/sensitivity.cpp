#include "core/sensitivity.hpp"

#include <stdexcept>

namespace sss::core {

std::vector<SweepPoint> sweep(const ModelParameters& base, double lo, double hi, int steps,
                              const std::function<void(ModelParameters&, double)>& apply) {
  if (steps < 2) throw std::invalid_argument("sweep: steps must be >= 2");
  if (!(hi > lo)) throw std::invalid_argument("sweep: hi must be > lo");

  std::vector<SweepPoint> out;
  out.reserve(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / (steps - 1);
    ModelParameters p = base;
    apply(p, x);
    p.validate();
    SweepPoint pt;
    pt.x = x;
    pt.t_local_s = t_local(p).seconds();
    pt.t_pct_s = t_pct(p).seconds();
    pt.gain = pt.t_pct_s > 0.0 ? pt.t_local_s / pt.t_pct_s : 0.0;
    out.push_back(pt);
  }
  return out;
}

std::vector<SweepPoint> sweep_alpha(const ModelParameters& base, double lo, double hi,
                                    int steps) {
  return sweep(base, lo, hi, steps, [](ModelParameters& p, double x) { p.alpha = x; });
}

std::vector<SweepPoint> sweep_theta(const ModelParameters& base, double lo, double hi,
                                    int steps) {
  return sweep(base, lo, hi, steps, [](ModelParameters& p, double x) { p.theta = x; });
}

std::vector<SweepPoint> sweep_r(const ModelParameters& base, double lo, double hi, int steps) {
  return sweep(base, lo, hi, steps, [](ModelParameters& p, double x) {
    p.r_remote = units::FlopsRate::flops(p.r_local.flop_per_s() * x);
  });
}

std::optional<double> critical_alpha(const ModelParameters& p) {
  p.validate();
  const double headroom = t_local(p).seconds() - t_remote(p).seconds();
  if (headroom <= 0.0) return std::nullopt;
  return p.theta * p.s_unit.bytes() / (p.bandwidth.bps() * headroom);
}

std::optional<double> critical_theta(const ModelParameters& p) {
  p.validate();
  const double headroom = t_local(p).seconds() - t_remote(p).seconds();
  if (headroom <= 0.0) return std::nullopt;
  return p.alpha * p.bandwidth.bps() * headroom / p.s_unit.bytes();
}

std::optional<double> critical_r(const ModelParameters& p) {
  p.validate();
  const double budget = t_local(p).seconds() - p.theta * t_transfer(p).seconds();
  if (budget <= 0.0) return std::nullopt;
  return p.work().flop() / (p.r_local.flop_per_s() * budget);
}

}  // namespace sss::core
