// completion.hpp — completion-time equations (Section 3.2, Eqs. 1-10).
//
// Each function is one equation from the paper; the docstrings quote the
// equation it implements.  All take the full ModelParameters so call sites
// read like the text.
#pragma once

#include "core/params.hpp"
#include "units/units.hpp"

namespace sss::core {

// Eq. 3:  T_local = C * S_unit / R_local
[[nodiscard]] units::Seconds t_local(const ModelParameters& p);

// Eq. 5:  T_transfer = S_unit / R_transfer = S_unit / (alpha * Bw)
[[nodiscard]] units::Seconds t_transfer(const ModelParameters& p);

// Eq. 6:  T_remote = C * S_unit / R_remote = C * S_unit / (r * R_local)
[[nodiscard]] units::Seconds t_remote(const ModelParameters& p);

// From Eq. 7/8:  T_IO = (theta - 1) * T_transfer
[[nodiscard]] units::Seconds t_io(const ModelParameters& p);

// Eq. 9/10:  T_pct = theta * T_transfer + T_remote
//                  = theta * S_unit / (alpha * Bw) + C * S_unit / (r * R_local)
[[nodiscard]] units::Seconds t_pct(const ModelParameters& p);

// Eq. 4 decomposition of the remote completion time.
struct RemoteBreakdown {
  units::Seconds transfer;  // T_transfer
  units::Seconds io;        // T_IO
  units::Seconds remote;    // T_remote
  [[nodiscard]] units::Seconds total() const { return transfer + io + remote; }
};
[[nodiscard]] RemoteBreakdown remote_breakdown(const ModelParameters& p);

}  // namespace sss::core
