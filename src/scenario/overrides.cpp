#include "scenario/overrides.hpp"

#include <optional>
#include <stdexcept>

#include "trace/parse.hpp"

namespace sss::scenario {

namespace {

using Config = simnet::WorkloadConfig;

[[noreturn]] void bad_value(const std::string& kv, std::string_view expectation) {
  throw std::invalid_argument("--param " + kv + ": expected " + std::string(expectation));
}

// One "key=value" on its way to a field: the conversions a binding picks
// from.  Each refuses text that is not of the field's type; the range
// rules are WorkloadConfig::validate()'s alone.
struct Text {
  const std::string& kv;
  const std::string& value;

  [[nodiscard]] double number() const {
    const auto parsed = trace::parse_double(value);
    if (!parsed.has_value()) bad_value(kv, "a number");
    return *parsed;
  }
  [[nodiscard]] int integer() const {
    const auto parsed = trace::parse_int(value);
    if (!parsed.has_value()) bad_value(kv, "an integer");
    return *parsed;
  }
  template <class Enum>
  [[nodiscard]] Enum choice(std::optional<Enum> (*parse)(std::string_view),
                            std::string_view spellings) const {
    const std::optional<Enum> parsed = parse(value);
    if (!parsed.has_value()) bad_value(kv, spellings);
    return *parsed;
  }
};

// The single-link keys silently do nothing on topology runs (effective_hops
// ignores config.link once path_hops is set) — reject them instead, in the
// same spirit as unknown keys.
const Text& single_link(const Config& config, const Text& text) {
  if (!config.path_hops.empty()) {
    throw std::invalid_argument("--param " + text.kv + ": '" +
                                text.kv.substr(0, text.kv.find('=')) +
                                "' targets the single link, but this run uses a " +
                                std::to_string(config.path_hops.size()) +
                                "-hop path (use hop<k>_gbps)");
  }
  return text;
}

// --- the binding table -----------------------------------------------------
//
// One entry per exact key: `apply` converts the value and stores it.
// hop<k>_gbps, storm<j>_* and tenant<j>_* are index patterns resolved after
// the table lookup, and seed/substrate are special-cased (seed pins
// reseeding, substrate lives on the RunPoint).

struct ParamBinding {
  std::string_view key;
  void (*apply)(Config&, const Text&);
};

const ParamBinding kBindings[] = {
    {"concurrency", [](Config& c, const Text& t) { c.concurrency = t.integer(); }},
    {"parallel_flows", [](Config& c, const Text& t) { c.parallel_flows = t.integer(); }},
    {"duration_s",
     [](Config& c, const Text& t) {
       const double seconds = t.number();
       // Hop-local cross-traffic windows were laid out against the ORIGINAL
       // duration; rescale them so a storm covering the second half of a
       // 10 s run still covers the second half of a 2 s one.
       const double ratio = seconds / c.duration.seconds();
       for (simnet::HopCrossTraffic& storm : c.hop_cross_traffic) {
         storm.start = storm.start * ratio;
         storm.until = storm.until * ratio;
       }
       c.duration = units::Seconds::of(seconds);
     }},
    {"transfer_size_mb",
     [](Config& c, const Text& t) { c.transfer_size = units::Bytes::megabytes(t.number()); }},
    {"transfer_size_bytes",
     [](Config& c, const Text& t) { c.transfer_size = units::Bytes::of(t.number()); }},
    {"link_gbps",
     [](Config& c, const Text& t) {
       c.link.capacity = units::DataRate::gigabits_per_second(single_link(c, t).number());
     }},
    {"rtt_ms",
     [](Config& c, const Text& t) {
       c.link.propagation_delay = units::Seconds::millis(single_link(c, t).number() / 2.0);
     }},
    {"buffer_mb",
     [](Config& c, const Text& t) {
       c.link.buffer = units::Bytes::megabytes(single_link(c, t).number());
     }},
    {"buffer_bytes",
     [](Config& c, const Text& t) {
       c.link.buffer = units::Bytes::of(single_link(c, t).number());
     }},
    {"link_name", [](Config& c, const Text& t) { c.link.name = single_link(c, t).value; }},
    {"background_load", [](Config& c, const Text& t) { c.background_load = t.number(); }},
    {"background_mean_mb",
     [](Config& c, const Text& t) {
       c.background_mean_flow_size = units::Bytes::megabytes(t.number());
     }},
    {"background_shape",
     [](Config& c, const Text& t) { c.background_pareto_shape = t.number(); }},
    {"trace_path", [](Config& c, const Text& t) { c.calibration.trace_path = t.value; }},
    {"fit_operating_util",
     [](Config& c, const Text& t) { c.calibration.operating_util = t.number(); }},
    {"fit_true_alpha", [](Config& c, const Text& t) { c.calibration.true_alpha = t.number(); }},
    {"fit_true_theta", [](Config& c, const Text& t) { c.calibration.true_theta = t.number(); }},
    {"fit_congestion_slope",
     [](Config& c, const Text& t) { c.calibration.congestion_slope = t.number(); }},
    {"zipf_skew", [](Config& c, const Text& t) { c.storage.zipf_skew = t.number(); }},
    {"topology", [](Config& c, const Text& t) { c.topology = t.value; }},
    {"sched_policy",
     [](Config& c, const Text& t) {
       c.scheduler.policy =
           t.choice(simnet::sched_policy_from_string, "none|fifo|fair|edf|backoff");
     }},
    {"sched_slots", [](Config& c, const Text& t) { c.scheduler.slots = t.integer(); }},
    {"sched_deadline_s", [](Config& c, const Text& t) { c.scheduler.deadline_s = t.number(); }},
    {"sched_burst_window_s",
     [](Config& c, const Text& t) { c.scheduler.burst_window_s = t.number(); }},
    {"sched_burst_limit", [](Config& c, const Text& t) { c.scheduler.burst_limit = t.integer(); }},
    {"sched_backoff_s", [](Config& c, const Text& t) { c.scheduler.backoff_s = t.number(); }},
    {"mode",
     [](Config& c, const Text& t) {
       c.mode = t.choice(simnet::spawn_mode_from_string, "simultaneous|scheduled");
     }},
    {"arrivals",
     [](Config& c, const Text& t) {
       c.arrivals = t.choice(simnet::arrival_process_from_string, "batch|deterministic|poisson");
     }},
};

// storm<j>_* and tenant<j>_* auto-extend their list to index j.  The
// generous bound catches typo'd or hostile indices before they turn into a
// multi-gigabyte resize.
constexpr std::size_t kMaxListIndex = 63;

template <class Item>
Item& list_item(std::vector<Item>& items, const Text& text, std::string_view list,
                std::size_t index) {
  if (index > kMaxListIndex) {
    throw std::invalid_argument("--param " + text.kv + ": " + std::string(list) + " index " +
                                std::to_string(index) + " exceeds the limit of " +
                                std::to_string(kMaxListIndex));
  }
  if (items.size() <= index) items.resize(index + 1);
  return items[index];
}

[[noreturn]] void unknown_field(const Text& text, std::string_view list,
                                const std::string& field) {
  throw std::invalid_argument("--param " + text.kv + ": unknown " + std::string(list) +
                              " field '" + field + "' (see scenario/overrides.hpp)");
}

// storm<j>_<field>: windowed hop-local cross traffic.
void apply_storm_field(Config& config, const Text& text, std::size_t index,
                       const std::string& field) {
  simnet::HopCrossTraffic& storm = list_item(config.hop_cross_traffic, text, "storm", index);
  if (field == "hop") {
    storm.hop = text.integer();
  } else if (field == "load") {
    storm.load = text.number();
  } else if (field == "start_s") {
    storm.start = units::Seconds::of(text.number());
  } else if (field == "until_s") {
    storm.until = units::Seconds::of(text.number());
  } else if (field == "mean_mb") {
    storm.mean_flow_size = units::Bytes::megabytes(text.number());
  } else if (field == "shape") {
    storm.pareto_shape = text.number();
  } else {
    unknown_field(text, "storm", field);
  }
}

// tenant<j>_<field>: facility tenants.
void apply_tenant_field(Config& config, const Text& text, std::size_t index,
                        const std::string& field) {
  simnet::TenantSpec& tenant = list_item(config.tenants, text, "tenant", index);
  if (field == "name") {
    tenant.name = text.value;
  } else if (field == "src") {
    tenant.src = text.value;
  } else if (field == "dst") {
    tenant.dst = text.value;
  } else if (field == "concurrency") {
    tenant.concurrency = text.integer();
  } else if (field == "size_mb") {
    tenant.transfer_size = units::Bytes::megabytes(text.number());
  } else if (field == "deadline_s") {
    tenant.deadline_s = text.number();
  } else {
    unknown_field(text, "tenant", field);
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
  const Text text{kv, value};

  for (const ParamBinding& binding : kBindings) {
    if (key == binding.key) {
      binding.apply(config, text);
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
    config.path_hops[index].capacity = units::DataRate::gigabits_per_second(text.number());
    return false;
  }
  if (split_indexed_key(key, "storm", index, field)) {
    apply_storm_field(config, text, index, field);
    return false;
  }
  if (split_indexed_key(key, "tenant", index, field)) {
    apply_tenant_field(config, text, index, field);
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
