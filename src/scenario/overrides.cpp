#include "scenario/overrides.hpp"

#include <stdexcept>

#include "simnet/topology.hpp"
#include "trace/parse.hpp"

namespace sss::scenario {

namespace {

[[noreturn]] void bad_value(const std::string& kv, std::string_view expectation) {
  throw std::invalid_argument("--param " + kv + ": expected " + std::string(expectation));
}

double require_double(const std::string& kv, const std::string& value,
                      std::string_view expectation) {
  const auto parsed = trace::parse_double(value);
  if (!parsed.has_value()) bad_value(kv, expectation);
  return *parsed;
}

int require_int(const std::string& kv, const std::string& value,
                std::string_view expectation) {
  const auto parsed = trace::parse_int(value);
  if (!parsed.has_value()) bad_value(kv, expectation);
  return *parsed;
}

// The single-link keys silently do nothing on topology runs (effective_hops
// ignores config.link once path_hops is set) — reject them instead, in the
// same spirit as unknown keys.
void require_single_link(const simnet::WorkloadConfig& config, const std::string& kv,
                         const std::string& key) {
  if (!config.path_hops.empty()) {
    throw std::invalid_argument("--param " + kv + ": '" + key +
                                "' targets the single link, but this run uses a " +
                                std::to_string(config.path_hops.size()) +
                                "-hop path (use hop<k>_gbps)");
  }
}

// --- the binding table -----------------------------------------------------
//
// One entry per exact key.  `apply` mutates the config after validating the
// value; hop<k>_gbps and storm<j>_* are index patterns resolved before the
// table lookup, and seed/substrate are special-cased by the callers (seed
// pins reseeding, substrate lives on the RunPoint).

struct ParamBinding {
  std::string_view key;
  void (*apply)(simnet::WorkloadConfig&, const std::string& kv, const std::string& value);
};

const ParamBinding kBindings[] = {
    {"concurrency",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const int v = require_int(kv, value, "an integer >= 1");
       if (v < 1) bad_value(kv, "an integer >= 1");
       config.concurrency = v;
     }},
    {"parallel_flows",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const int v = require_int(kv, value, "an integer >= 1");
       if (v < 1) bad_value(kv, "an integer >= 1");
       config.parallel_flows = v;
     }},
    {"duration_s",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "a duration > 0");
       if (!(v > 0.0)) bad_value(kv, "a duration > 0");
       // Hop-local cross-traffic windows were laid out against the ORIGINAL
       // duration; rescale them so a storm covering the second half of a
       // 10 s run still covers the second half of a 2 s one.
       const double ratio = v / config.duration.seconds();
       for (simnet::HopCrossTraffic& storm : config.hop_cross_traffic) {
         storm.start = storm.start * ratio;
         storm.until = storm.until * ratio;
       }
       config.duration = units::Seconds::of(v);
     }},
    {"transfer_size_mb",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "a size > 0 (MB)");
       if (!(v > 0.0)) bad_value(kv, "a size > 0 (MB)");
       config.transfer_size = units::Bytes::megabytes(v);
     }},
    {"transfer_size_bytes",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "a size > 0 (bytes)");
       if (!(v > 0.0)) bad_value(kv, "a size > 0 (bytes)");
       config.transfer_size = units::Bytes::of(v);
     }},
    {"link_gbps",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       require_single_link(config, kv, "link_gbps");
       const double v = require_double(kv, value, "a rate > 0 (Gbps)");
       if (!(v > 0.0)) bad_value(kv, "a rate > 0 (Gbps)");
       config.link.capacity = units::DataRate::gigabits_per_second(v);
     }},
    {"rtt_ms",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       require_single_link(config, kv, "rtt_ms");
       const double v = require_double(kv, value, "an RTT > 0 (ms)");
       if (!(v > 0.0)) bad_value(kv, "an RTT > 0 (ms)");
       config.link.propagation_delay = units::Seconds::millis(v / 2.0);
     }},
    {"buffer_mb",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       require_single_link(config, kv, "buffer_mb");
       const double v = require_double(kv, value, "a buffer >= 0 (MB)");
       if (v < 0.0) bad_value(kv, "a buffer >= 0 (MB)");
       config.link.buffer = units::Bytes::megabytes(v);
     }},
    {"buffer_bytes",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       require_single_link(config, kv, "buffer_bytes");
       const double v = require_double(kv, value, "a buffer >= 0 (bytes)");
       if (v < 0.0) bad_value(kv, "a buffer >= 0 (bytes)");
       config.link.buffer = units::Bytes::of(v);
     }},
    {"link_name",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       require_single_link(config, kv, "link_name");
       if (value.empty()) bad_value(kv, "an interface name");
       config.link.name = value;
     }},
    {"background_load",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "a load >= 0");
       if (v < 0.0) bad_value(kv, "a load >= 0");
       config.background_load = v;
     }},
    {"background_mean_mb",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "a size > 0 (MB)");
       if (!(v > 0.0)) bad_value(kv, "a size > 0 (MB)");
       config.background_mean_flow_size = units::Bytes::megabytes(v);
     }},
    {"background_shape",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "a shape >= 0 (<= 1 = exponential)");
       if (v < 0.0) bad_value(kv, "a shape >= 0 (<= 1 = exponential)");
       config.background_pareto_shape = v;
     }},
    {"trace_path",
     [](simnet::WorkloadConfig& config, const std::string&, const std::string& value) {
       config.calibration.trace_path = value;
     }},
    {"fit_operating_util",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "a utilization > 0");
       if (!(v > 0.0)) bad_value(kv, "a utilization > 0");
       config.calibration.operating_util = v;
     }},
    {"fit_true_alpha",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "an efficiency in (0, 1]");
       if (!(v > 0.0) || v > 1.0) bad_value(kv, "an efficiency in (0, 1]");
       config.calibration.true_alpha = v;
     }},
    {"fit_true_theta",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "an overhead coefficient >= 1");
       if (!(v >= 1.0)) bad_value(kv, "an overhead coefficient >= 1");
       config.calibration.true_theta = v;
     }},
    {"fit_congestion_slope",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "a slope >= 0");
       if (v < 0.0) bad_value(kv, "a slope >= 0");
       config.calibration.congestion_slope = v;
     }},
    {"zipf_skew",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "a Zipf exponent >= 0 (0 = uniform popularity)");
       if (v < 0.0) bad_value(kv, "a Zipf exponent >= 0 (0 = uniform popularity)");
       config.storage.zipf_skew = v;
     }},
    {"topology",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       if (!value.empty()) {
         try {
           (void)simnet::topology_preset(value);
         } catch (const std::invalid_argument& e) {
           // The preset catalog's message lists the valid names.
           throw std::invalid_argument("--param " + kv + ": " + e.what());
         }
       }
       config.topology = value;
     }},
    {"sched_policy",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const auto policy = simnet::sched_policy_from_string(value);
       if (!policy.has_value()) bad_value(kv, "none|fifo|fair|edf|backoff");
       config.scheduler.policy = *policy;
     }},
    {"sched_slots",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const int v = require_int(kv, value, "an integer >= 1 (concurrent admitted transfers)");
       if (v < 1) bad_value(kv, "an integer >= 1 (concurrent admitted transfers)");
       config.scheduler.slots = v;
     }},
    {"sched_deadline_s",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "a relative deadline > 0 (s)");
       if (!(v > 0.0)) bad_value(kv, "a relative deadline > 0 (s)");
       config.scheduler.deadline_s = v;
     }},
    {"sched_burst_window_s",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "a window > 0 (s)");
       if (!(v > 0.0)) bad_value(kv, "a window > 0 (s)");
       config.scheduler.burst_window_s = v;
     }},
    {"sched_burst_limit",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const int v = require_int(kv, value, "an integer >= 1 (admissions per window)");
       if (v < 1) bad_value(kv, "an integer >= 1 (admissions per window)");
       config.scheduler.burst_limit = v;
     }},
    {"sched_backoff_s",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const double v = require_double(kv, value, "a spacing >= 0 (s)");
       if (v < 0.0) bad_value(kv, "a spacing >= 0 (s)");
       config.scheduler.backoff_s = v;
     }},
    {"mode",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const auto mode = simnet::spawn_mode_from_string(value);
       if (!mode.has_value()) bad_value(kv, "simultaneous|scheduled");
       config.mode = *mode;
     }},
    {"arrivals",
     [](simnet::WorkloadConfig& config, const std::string& kv, const std::string& value) {
       const auto process = simnet::arrival_process_from_string(value);
       if (!process.has_value()) bad_value(kv, "batch|deterministic|poisson");
       config.arrivals = *process;
     }},
};

// storm<j>_<field>: windowed hop-local cross traffic, auto-extending the
// storm list to index j.
// Generous bound on storm<j> indices: catches typo'd or hostile indices
// before they turn into a multi-gigabyte resize of the storm list.
constexpr std::size_t kMaxStormIndex = 63;

void apply_storm_field(simnet::WorkloadConfig& config, const std::string& kv,
                       std::size_t index, const std::string& field,
                       const std::string& value) {
  if (index > kMaxStormIndex) {
    throw std::invalid_argument("--param " + kv + ": storm index " +
                                std::to_string(index) + " exceeds the limit of " +
                                std::to_string(kMaxStormIndex));
  }
  if (config.hop_cross_traffic.size() <= index) {
    config.hop_cross_traffic.resize(index + 1);
  }
  simnet::HopCrossTraffic& storm = config.hop_cross_traffic[index];
  if (field == "hop") {
    const int v = require_int(kv, value, "a hop index >= 0");
    if (v < 0) bad_value(kv, "a hop index >= 0");
    storm.hop = v;
  } else if (field == "load") {
    const double v = require_double(kv, value, "a load >= 0");
    if (v < 0.0) bad_value(kv, "a load >= 0");
    storm.load = v;
  } else if (field == "start_s") {
    const double v = require_double(kv, value, "a time >= 0 (s)");
    if (v < 0.0) bad_value(kv, "a time >= 0 (s)");
    storm.start = units::Seconds::of(v);
  } else if (field == "until_s") {
    const double v = require_double(kv, value, "a time >= 0 (s)");
    if (v < 0.0) bad_value(kv, "a time >= 0 (s)");
    storm.until = units::Seconds::of(v);
  } else if (field == "mean_mb") {
    const double v = require_double(kv, value, "a size > 0 (MB)");
    if (!(v > 0.0)) bad_value(kv, "a size > 0 (MB)");
    storm.mean_flow_size = units::Bytes::megabytes(v);
  } else if (field == "shape") {
    const double v = require_double(kv, value, "a shape >= 0 (<= 1 = exponential)");
    if (v < 0.0) bad_value(kv, "a shape >= 0 (<= 1 = exponential)");
    storm.pareto_shape = v;
  } else {
    throw std::invalid_argument("--param " + kv + ": unknown storm field '" + field +
                                "' (see scenario/overrides.hpp)");
  }
}

// tenant<j>_<field>: facility tenants, auto-extending the tenant list to
// index j (same bound rationale as storms).
constexpr std::size_t kMaxTenantIndex = 63;

void apply_tenant_field(simnet::WorkloadConfig& config, const std::string& kv,
                        std::size_t index, const std::string& field,
                        const std::string& value) {
  if (index > kMaxTenantIndex) {
    throw std::invalid_argument("--param " + kv + ": tenant index " +
                                std::to_string(index) + " exceeds the limit of " +
                                std::to_string(kMaxTenantIndex));
  }
  if (config.tenants.size() <= index) {
    config.tenants.resize(index + 1);
  }
  simnet::TenantSpec& tenant = config.tenants[index];
  if (field == "name") {
    tenant.name = value;
  } else if (field == "src") {
    tenant.src = value;  // node names are validated against the topology
  } else if (field == "dst") {
    tenant.dst = value;
  } else if (field == "concurrency") {
    const int v = require_int(kv, value, "an integer >= 0 (0 = inherit)");
    if (v < 0) bad_value(kv, "an integer >= 0 (0 = inherit)");
    tenant.concurrency = v;
  } else if (field == "size_mb") {
    const double v = require_double(kv, value, "a size >= 0 (MB, 0 = inherit)");
    if (v < 0.0) bad_value(kv, "a size >= 0 (MB, 0 = inherit)");
    tenant.transfer_size = units::Bytes::megabytes(v);
  } else if (field == "deadline_s") {
    const double v = require_double(kv, value, "a deadline >= 0 (s, 0 = inherit)");
    if (v < 0.0) bad_value(kv, "a deadline >= 0 (s, 0 = inherit)");
    tenant.deadline_s = v;
  } else {
    throw std::invalid_argument("--param " + kv + ": unknown tenant field '" + field +
                                "' (see scenario/overrides.hpp)");
  }
}

// "<prefix><index>_<field>" pattern ("hop1_gbps", "storm0_load").  Returns
// false when `key` does not start with the prefix followed by a digit.
bool split_indexed_key(const std::string& key, std::string_view prefix,
                       std::size_t& index, std::string& field) {
  if (key.size() <= prefix.size() || key.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  const std::size_t underscore = key.find('_', prefix.size());
  if (underscore == std::string::npos || underscore == prefix.size() ||
      underscore + 1 >= key.size()) {
    return false;
  }
  const auto parsed =
      trace::parse_int(std::string_view(key).substr(prefix.size(), underscore - prefix.size()));
  if (!parsed.has_value() || *parsed < 0) return false;
  index = static_cast<std::size_t>(*parsed);
  field = key.substr(underscore + 1);
  return true;
}

}  // namespace

std::vector<std::string> split_param_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    std::size_t end = csv.find(',', begin);
    if (end == std::string::npos) end = csv.size();
    if (end > begin) out.push_back(csv.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

bool apply_param_override(simnet::WorkloadConfig& config, const std::string& kv) {
  const std::size_t eq = kv.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("--param " + kv + ": expected key=value");
  }
  const std::string key = kv.substr(0, eq);
  const std::string value = kv.substr(eq + 1);

  for (const ParamBinding& binding : kBindings) {
    if (key == binding.key) {
      binding.apply(config, kv, value);
      return false;
    }
  }

  std::size_t index = 0;
  std::string field;
  if (split_indexed_key(key, "hop", index, field)) {
    if (field != "gbps") {
      throw std::invalid_argument("--param " + kv + ": unknown key '" + key +
                                  "' (hop<k> supports only hop<k>_gbps)");
    }
    if (index >= config.path_hops.size()) {
      throw std::invalid_argument("--param " + kv + ": run has " +
                                  std::to_string(config.path_hops.size()) + " path hops");
    }
    const double v = require_double(kv, value, "a rate > 0 (Gbps)");
    if (!(v > 0.0)) bad_value(kv, "a rate > 0 (Gbps)");
    config.path_hops[index].capacity = units::DataRate::gigabits_per_second(v);
    return false;
  }
  if (split_indexed_key(key, "storm", index, field)) {
    apply_storm_field(config, kv, index, field, value);
    return false;
  }
  if (split_indexed_key(key, "tenant", index, field)) {
    apply_tenant_field(config, kv, index, field, value);
    return false;
  }
  if (key == "seed") {
    const auto v = trace::parse_uint64(value);
    if (!v.has_value()) bad_value(kv, "an unsigned integer");
    config.seed = *v;
    return true;
  }
  throw std::invalid_argument("--param " + kv + ": unknown key '" + key +
                              "' (see scenario/overrides.hpp)");
}

bool apply_run_override(RunPoint& run, const std::string& kv) {
  const std::size_t eq = kv.find('=');
  if (eq != std::string::npos && kv.compare(0, eq, "substrate") == 0 && eq != 0) {
    const auto substrate = substrate_from_string(kv.substr(eq + 1));
    if (!substrate.has_value()) bad_value(kv, "packet|fluid");
    run.substrate = *substrate;
    return false;
  }
  return apply_param_override(run.config, kv);
}

void apply_param_overrides(std::vector<RunPoint>& runs,
                           const std::vector<std::string>& overrides) {
  for (RunPoint& run : runs) {
    for (const std::string& kv : overrides) {
      if (apply_run_override(run, kv)) run.reseed = false;
    }
  }
}

}  // namespace sss::scenario
