// overrides.hpp — the ONE name→field binding table for workload knobs.
//
// Every tunable field has exactly one spelling, shared by all three paths
// that configure runs from text:
//   - `scenario_runner --param k=v` (post-expansion overrides applied to
//     every RunPoint),
//   - ExperimentPlan axis assignments (scenario/plan.hpp — each AxisPoint
//     is a list of these same "key=value" strings),
//   - plan JSON files loaded with `--plan` (axes serialize the strings
//     verbatim; the plan's `base` workload is a nested JSON object written
//     and read from one field list per struct in scenario/plan.cpp, which
//     reuses only the enum spellings).
//
// The table only parses.  Values go through the shared strict parsers
// (trace/parse.hpp), so trailing garbage raises std::invalid_argument
// rather than being silently truncated; enum spellings, unknown keys, a
// storm<j>/tenant<j> index past the next free entry and a hop<k> past the
// path are refused here too.  Every RANGE rule is
// WorkloadConfig::validate()'s (simnet/workload.hpp), which execute_scenario
// runs on every cell before any cell starts, whichever of the three paths
// set the value.  The bounds below are validate()'s.  execute_scenario also
// refuses, in any order of keys and axes, a single-link key that changed
// `link` on a run whose network comes from path_hops or a topology preset.
//
// Key catalog (applied in the order given):
//   concurrency=<int >= 1>        clients spawned per second
//   parallel_flows=<int >= 1>     TCP flows per client
//   duration_s=<double > 0>       experiment duration (after scaling);
//                                 hop-local cross-traffic windows are
//                                 rescaled proportionally so storm plans
//                                 keep their shape
//   transfer_size_mb=<double > 0> per-client transfer size
//   transfer_size_bytes=<double > 0>  same, in exact bytes (plan files)
//   link_gbps=<double > 0>        single-link capacity (config.link;
//                                 refused on multi-hop and topology-preset
//                                 runs — use hop<k>_gbps on multi-hop ones)
//   rtt_ms=<double > 0>           single-link RTT (one-way = rtt/2;
//                                 single-link runs only)
//   buffer_mb=<double >= 0>       single-link drop-tail buffer
//                                 (single-link runs only)
//   buffer_bytes=<double >= 0>    same, in exact bytes (single-link only)
//   link_name=<non-empty string>  single-link interface name (labels the
//                                 hop column in per-hop CSV groups)
//   hop<k>_gbps=<double > 0>      capacity of path_hops entry k (multi-hop
//                                 plans; a topology preset's links are fixed)
//   background_load=<double >= 0> end-to-end cross-traffic load
//   background_mean_mb=<double > 0>   mean background flow size
//   background_shape=<double >= 0>    background Pareto tail shape
//                                 (<= 1 falls back to exponential sizes)
//   storm<j>_hop=<int in [0, hops)>   hop index of windowed cross-traffic
//                                 storm j (j may name the next storm past
//                                 the list, which appends it)
//   storm<j>_load=<double >= 0>   storm load, fraction of its hop capacity
//   storm<j>_start_s=<double >= 0>  storm window start (scale-1 seconds)
//   storm<j>_until_s=<double >= 0>  storm window end (scale-1 seconds;
//                                 > start when the load is > 0)
//   storm<j>_mean_mb=<double > 0> storm mean flow size
//   storm<j>_shape=<double >= 0>  storm Pareto tail shape
//   trace_path=<path>             per-transfer trace CSV for the
//                                 calibration scenarios ('' = the
//                                 built-in demo trace)
//   fit_operating_util=<double > 0>   utilization at which fitted
//                                 parameters are read out / extrapolated
//   fit_true_alpha=<double in (0,1]>  synthetic ground-truth alpha
//                                 (fit_alpha_theta_synthetic)
//   fit_true_theta=<double >= 1>  synthetic ground-truth theta
//   fit_congestion_slope=<double >= 0>  synthetic congestion sensitivity
//   zipf_skew=<double >= 0>       storage-layer object popularity Zipf
//                                 exponent (0 = uniform; staged-transfer
//                                 scenarios spread bytes across files with
//                                 weight 1/rank^s)
//   topology=<preset name>        topology preset ('' = none)
//   tenant<j>_name|src|dst=<string>   facility tenant j (j may name the
//                                 next tenant, which appends it; src/dst
//                                 must be nodes of the topology)
//   tenant<j>_concurrency=<int >= 0>  (0 = inherit concurrency)
//   tenant<j>_size_mb=<double >= 0>   (0 = inherit transfer size)
//   tenant<j>_deadline_s=<double >= 0>  (0 = inherit sched_deadline_s)
//   sched_policy=none|fifo|fair|edf|backoff  admission policy (not none
//                                 only with tenants)
//   sched_slots=<int >= 1>        concurrent admitted transfers
//   sched_deadline_s=<double > 0> default relative EDF deadline
//   sched_burst_window_s=<double > 0>  backoff admission window
//   sched_burst_limit=<int >= 1>  admissions per window
//   sched_backoff_s=<double >= 0> minimum admission spacing
//   mode=simultaneous|scheduled   spawn mode
//   arrivals=batch|deterministic|poisson  arrival process
//   substrate=packet|fluid        simulation substrate (RunPoint-level)
//   seed=<uint64>                 pin the run seed (disables reseeding)
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace sss::scenario {

// Split a comma-separated list ("k=v,k=v", or the `--run a,b` scenario
// names) into its entries; empty segments are dropped.
[[nodiscard]] std::vector<std::string> split_param_list(const std::string& csv);

// Apply one "key=value" override to a workload config.  Throws
// std::invalid_argument for an unknown key or a value that does not parse
// as the field's type; an out-of-range value is stored, for
// WorkloadConfig::validate() to refuse.  Returns true when the override
// pins the seed (the caller must then disable executor reseeding for the
// run).
bool apply_param_override(simnet::WorkloadConfig& config, const std::string& override_kv);

// Run-level variant: additionally understands `substrate=packet|fluid`.
// This is the entry point plan axes and --param both go through.
bool apply_run_override(RunPoint& run, const std::string& override_kv);

// Apply every override to every run, in order.  Seed overrides set
// RunPoint::reseed = false so the pinned seed survives the executor.
void apply_param_overrides(std::vector<RunPoint>& runs,
                           const std::vector<std::string>& overrides);

}  // namespace sss::scenario
