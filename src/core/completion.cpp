#include "core/completion.hpp"

namespace sss::core {

units::Seconds t_local(const ModelParameters& p) { return p.work() / p.r_local; }

units::Seconds t_transfer(const ModelParameters& p) { return p.s_unit / p.r_transfer(); }

units::Seconds t_remote(const ModelParameters& p) { return p.work() / p.r_remote; }

units::Seconds t_io(const ModelParameters& p) { return t_transfer(p) * (p.theta - 1.0); }

units::Seconds t_pct(const ModelParameters& p) {
  return t_transfer(p) * p.theta + t_remote(p);
}

RemoteBreakdown remote_breakdown(const ModelParameters& p) {
  return RemoteBreakdown{t_transfer(p), t_io(p), t_remote(p)};
}

}  // namespace sss::core
