// experiment_io.hpp — persistence for measurement artifacts.
//
// The paper's methodology separates measurement (controlled congestion
// experiments, possibly run overnight on the real path) from decision
// (which a beamline operator makes later, repeatedly).  This module
// persists the per-transfer traces of those measurement campaigns (the
// trace-driven calibration input of core/fitting.hpp) as plain CSV, and
// round-trips them exactly enough to reproduce every downstream decision.
#pragma once

#include <string>
#include <vector>

#include "core/fitting.hpp"

namespace sss::core {

// --- per-transfer traces (trace-driven calibration) -------------------------

// Columns: transfer_id, load_level, start_s, end_s, bytes, link_gbps, io_s
// (one row per measured transfer; see core/fitting.hpp TransferRecord).
// The reader is strict: a missing column throws std::out_of_range; a
// truncated/ragged row, a non-numeric field, or load levels that are not
// grouped in non-decreasing order all throw std::runtime_error — a mangled
// campaign file must fail loudly, never silently skip rows.
void write_transfer_trace(const std::string& path,
                          const std::vector<TransferRecord>& records);

[[nodiscard]] std::vector<TransferRecord> read_transfer_trace(const std::string& path);

// --- in-memory CSV variants (used by tests and by callers that embed the
// CSV in other artifacts) ----------------------------------------------------

[[nodiscard]] std::string transfer_trace_to_csv(const std::vector<TransferRecord>& records);
[[nodiscard]] std::vector<TransferRecord> transfer_trace_from_csv(const std::string& text);

}  // namespace sss::core
