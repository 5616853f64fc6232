// sensitivity.hpp — parameter sweeps and break-even analysis.
//
// The conclusion frames the model as "a gain function based on three core
// parameters: alpha, r and theta".  This module explores that function:
// sweep any parameter and find the critical values where remote streaming
// stops (or starts) beating local processing.
//
// Closed forms (derived from Eqs. 3 and 10, streaming wins iff
// T_pct < T_local):
//
//   theta * S/(alpha*Bw)  <  C*S/R_local - C*S/(r*R_local)
//
//   alpha* = theta * S / (Bw * (T_local - T_remote))      (minimum alpha)
//   theta* = alpha * Bw * (T_local - T_remote) / S        (maximum theta)
//   r*     = C*S / (R_local * (T_local - theta*T_transfer)) (minimum r)
//
// each valid only when its denominator is positive — when it is not, no
// value of that parameter can flip the decision (e.g. a remote machine
// slower than local can never win on completion time).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/completion.hpp"
#include "core/params.hpp"

namespace sss::core {

struct SweepPoint {
  double x = 0.0;               // swept parameter value
  double t_local_s = 0.0;
  double t_pct_s = 0.0;
  double gain = 0.0;            // T_local / T_pct
};

// Generic sweep: `apply` installs x into a copy of `base` which is then
// evaluated.  Helpers below cover the common axes.
[[nodiscard]] std::vector<SweepPoint> sweep(
    const ModelParameters& base, double lo, double hi, int steps,
    const std::function<void(ModelParameters&, double)>& apply);

[[nodiscard]] std::vector<SweepPoint> sweep_alpha(const ModelParameters& base, double lo,
                                                  double hi, int steps);
[[nodiscard]] std::vector<SweepPoint> sweep_theta(const ModelParameters& base, double lo,
                                                  double hi, int steps);
// Sweeps r by scaling R_remote (R_local fixed).
[[nodiscard]] std::vector<SweepPoint> sweep_r(const ModelParameters& base, double lo,
                                              double hi, int steps);

// Minimum transfer efficiency for streaming to beat local; nullopt when
// remote compute alone is already slower than local.
[[nodiscard]] std::optional<double> critical_alpha(const ModelParameters& p);
// Maximum I/O overhead coefficient for remote to beat local; nullopt under
// the same condition.  (Values < 1 mean even pure streaming loses.)
[[nodiscard]] std::optional<double> critical_theta(const ModelParameters& p);
// Minimum remote/local speed ratio for remote to beat local; nullopt when
// the transfer alone (theta * T_transfer) exceeds T_local.
[[nodiscard]] std::optional<double> critical_r(const ModelParameters& p);

}  // namespace sss::core
