#include "scenario/plan.hpp"

#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <string_view>

#include "core/decision.hpp"
#include "core/sss_score.hpp"
#include "scenario/overrides.hpp"
#include "simnet/metrics.hpp"
#include "simnet/scheduler.hpp"
#include "stats/percentile.hpp"
#include "trace/atomic_io.hpp"
#include "trace/parse.hpp"
#include "trace/table.hpp"

namespace sss::scenario {

namespace {

// Exact decimal for assignment values and JSON (round-trips the double).
std::string exact(double v) {
  char buf[32];
  return trace::format_double_exact(v, buf);
}

// Human formatting for generated labels — the same 6-significant-digit rule
// scenario rows use (scenario/common.hpp detail::fmt).
std::string pretty(double v) { return trace::ConsoleTable::num(v, 6); }

[[noreturn]] void axis_error(const std::string& what) {
  throw std::invalid_argument("ParamAxis: " + what);
}

[[noreturn]] void plan_error(const std::string& what) {
  throw std::runtime_error("ExperimentPlan: " + what);
}

}  // namespace

// --- ParamAxis -------------------------------------------------------------

ParamAxis ParamAxis::list(std::string key, const std::vector<double>& values,
                          std::string label_prefix, std::string label_suffix) {
  ParamAxis axis;
  axis.kind = Kind::kList;
  axis.key = std::move(key);
  axis.values.reserve(values.size());
  for (const double v : values) axis.values.push_back(exact(v));
  axis.label_prefix = std::move(label_prefix);
  axis.label_suffix = std::move(label_suffix);
  return axis;
}

ParamAxis ParamAxis::list_strings(std::string key, std::vector<std::string> values,
                                  std::string label_prefix, std::string label_suffix) {
  ParamAxis axis;
  axis.kind = Kind::kList;
  axis.key = std::move(key);
  axis.values = std::move(values);
  axis.label_prefix = std::move(label_prefix);
  axis.label_suffix = std::move(label_suffix);
  return axis;
}

ParamAxis ParamAxis::linspace(std::string key, double from, double to, int count,
                              std::string label_prefix, std::string label_suffix) {
  ParamAxis axis;
  axis.kind = Kind::kLinspace;
  axis.key = std::move(key);
  axis.from = from;
  axis.to = to;
  axis.count = count;
  axis.label_prefix = std::move(label_prefix);
  axis.label_suffix = std::move(label_suffix);
  return axis;
}

ParamAxis ParamAxis::tuples(std::string name, std::vector<AxisPoint> points) {
  ParamAxis axis;
  axis.kind = Kind::kTuples;
  axis.name = std::move(name);
  axis.points = std::move(points);
  return axis;
}

std::vector<AxisPoint> ParamAxis::expand() const {
  std::vector<AxisPoint> out;
  auto value_point = [&](const std::string& value_text) {
    AxisPoint point;
    const auto numeric = trace::parse_double(value_text);
    point.label = label_prefix + (numeric.has_value() ? pretty(*numeric) : value_text) +
                  label_suffix;
    point.set = {key + "=" + value_text};
    return point;
  };
  switch (kind) {
    case Kind::kList: {
      if (key.empty()) axis_error("list axis needs a key");
      if (values.empty()) axis_error("list axis '" + key + "' has no values");
      out.reserve(values.size());
      for (const std::string& value : values) out.push_back(value_point(value));
      return out;
    }
    case Kind::kLinspace:
    case Kind::kLogspace: {
      if (key.empty()) axis_error("spaced axis needs a key");
      if (count < 1) axis_error("axis '" + key + "' needs count >= 1");
      const bool log = kind == Kind::kLogspace;
      if (log && (!(from > 0.0) || !(to > 0.0))) {
        axis_error("logspace axis '" + key + "' needs positive endpoints");
      }
      const double lo = log ? std::log10(from) : from;
      const double hi = log ? std::log10(to) : to;
      out.reserve(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) {
        double v = count == 1 ? lo : lo + (hi - lo) * static_cast<double>(i) /
                                              static_cast<double>(count - 1);
        if (log) v = std::pow(10.0, v);
        out.push_back(value_point(exact(v)));
      }
      return out;
    }
    case Kind::kTuples: {
      if (points.empty()) axis_error("tuple axis '" + name + "' has no points");
      return points;
    }
  }
  axis_error("unknown axis kind");
}

// --- expansion -------------------------------------------------------------

std::size_t ExperimentPlan::cell_count() const {
  std::size_t total = repeat > 0 ? static_cast<std::size_t>(repeat) : 0;
  for (const ParamAxis& axis : axes) total *= axis.expand().size();
  return total;
}

std::vector<RunPoint> ExperimentPlan::expand(const ScenarioContext& context) const {
  if (repeat < 1) plan_error("repeat must be >= 1");
  std::vector<std::vector<AxisPoint>> grid;
  grid.reserve(axes.size() + 1);
  for (const ParamAxis& axis : axes) grid.push_back(axis.expand());
  if (repeat > 1) {
    std::vector<AxisPoint> reps(static_cast<std::size_t>(repeat));
    for (int i = 0; i < repeat; ++i) reps[static_cast<std::size_t>(i)].label =
        "rep=" + std::to_string(i);
    grid.push_back(std::move(reps));
  }

  std::size_t total = 1;
  for (const auto& axis_points : grid) total *= axis_points.size();

  std::vector<RunPoint> runs;
  runs.reserve(total);
  for (std::size_t cell = 0; cell < total; ++cell) {
    RunPoint run;
    run.substrate = substrate;
    run.config = base;
    std::string label;
    // First axis outermost: peel indices off `cell` from the innermost
    // (last) axis upward, applying points in axis order afterwards.
    std::size_t remaining = cell;
    std::vector<std::size_t> indices(grid.size());
    for (std::size_t k = grid.size(); k-- > 0;) {
      indices[k] = remaining % grid[k].size();
      remaining /= grid[k].size();
    }
    for (std::size_t k = 0; k < grid.size(); ++k) {
      const AxisPoint& point = grid[k][indices[k]];
      if (!point.label.empty()) {
        if (!label.empty()) label += " ";
        label += point.label;
      }
      for (const std::string& kv : point.set) {
        if (apply_run_override(run, kv)) run.reseed = false;
      }
    }
    if (fixed_seed.has_value()) {
      run.config.seed = *fixed_seed;
      run.reseed = false;
    }
    if (scale_duration) {
      run.config.duration = run.config.duration * context.scale;
      for (simnet::HopCrossTraffic& storm : run.config.hop_cross_traffic) {
        storm.start = storm.start * context.scale;
        storm.until = storm.until * context.scale;
      }
    }
    run.label = label.empty() ? (scenario.empty() ? std::string("base") : scenario)
                              : std::move(label);
    runs.push_back(std::move(run));
  }
  return runs;
}

// --- derived-metric catalog ------------------------------------------------

namespace {

using MetricFn =
    std::function<std::string(const RunPoint&, const simnet::ExperimentResult&)>;

double sss_value(const simnet::ExperimentResult& r) {
  return core::compute_sss(units::Seconds::of(r.t_worst_s()), r.config.transfer_size,
                           r.config.bottleneck_capacity())
      .value();
}

std::string yes_no(bool b) { return b ? "yes" : "no"; }

const std::map<std::string, MetricFn, std::less<>>& metric_catalog() {
  static const std::map<std::string, MetricFn, std::less<>> catalog = {
      {"label", [](const RunPoint& run, const simnet::ExperimentResult&) {
         return run.label;
       }},
      {"substrate", [](const RunPoint& run, const simnet::ExperimentResult&) {
         return std::string(to_string(run.substrate));
       }},
      {"seed", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return std::to_string(r.config.seed);
       }},
      {"concurrency", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return std::to_string(r.config.concurrency);
       }},
      {"parallel_flows", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return std::to_string(r.config.parallel_flows);
       }},
      {"duration_s", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.config.duration.seconds());
       }},
      {"transfer_size_mb", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.config.transfer_size.mb());
       }},
      {"offered_load", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.offered_load);
       }},
      {"config_offered_load", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.config.offered_load());
       }},
      {"total_offered_load", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.config.offered_load() + r.config.background_load);
       }},
      {"background_load", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.config.background_load);
       }},
      {"measured_utilization", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.metrics.mean_utilization);
       }},
      {"t_worst_s", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.t_worst_s());
       }},
      {"t_mean_s", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.metrics.mean_client_fct_s());
       }},
      {"t_theoretical_s", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.t_theoretical_s());
       }},
      {"sss", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(sss_value(r));
       }},
      {"regime", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return std::string(core::to_string(core::classify_regime(sss_value(r))));
       }},
      {"loss_rate", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.metrics.loss_rate);
       }},
      {"retransmits", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return std::to_string(r.metrics.total_retransmits);
       }},
      {"rto_events", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return std::to_string(r.metrics.total_rto_events);
       }},
      {"packets_dropped", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return std::to_string(r.metrics.packets_dropped);
       }},
      {"events_processed", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return std::to_string(r.events_processed);
       }},
      {"queue_high_water", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return std::to_string(r.queue_high_water);
       }},
      {"within_1s_budget", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return yes_no(r.t_worst_s() <= 1.0);
       }},
      {"capacity_gbps", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.config.link.capacity.gbit_per_s());
       }},
      {"rtt_ms", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.config.link.propagation_delay.ms() * 2.0);
       }},
      {"buffer_mb", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.config.link.buffer.mb());
       }},
      // Buffer depth relative to the Table-1 bandwidth-delay product
      // (25 Gbps x 16 ms = 50 MB), the x-axis of the buffer ablation.
      {"buffer_bdp", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.config.link.buffer.mb() / 50.0);
       }},
      {"hop0_gbps", [](const RunPoint&, const simnet::ExperimentResult& r) {
         if (r.config.path_hops.empty()) {
           throw std::invalid_argument("metric 'hop0_gbps' needs a multi-hop run");
         }
         return pretty(r.config.path_hops.front().capacity.gbit_per_s());
       }},
      {"bottleneck_hop", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return core::profile_path(r.config.effective_hops()).bottleneck_name;
       }},
      {"path_gbps", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(core::profile_path(r.config.effective_hops())
                           .bottleneck_bandwidth.gbit_per_s());
       }},
      {"storm0_load", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(r.config.hop_cross_traffic.empty()
                           ? 0.0
                           : r.config.hop_cross_traffic.front().load);
       }},
      // Worst case for one 2 GB coherent-scattering window, extrapolated
      // from the measured SSS at the path bottleneck (Section 5).
      {"coherent_window_worst_s", [](const RunPoint&, const simnet::ExperimentResult& r) {
         const units::Bytes window = units::Bytes::gigabytes(2.0);
         return pretty(sss_value(r) * (window / r.config.bottleneck_capacity()).seconds());
       }},
      {"coherent_window_tier2_ok", [](const RunPoint&, const simnet::ExperimentResult& r) {
         const units::Bytes window = units::Bytes::gigabytes(2.0);
         return yes_no(sss_value(r) * (window / r.config.bottleneck_capacity()).seconds() <=
                       10.0);
       }},
      // --- facility-contention columns (simnet/scheduler.hpp reductions) ---
      {"topology", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return r.config.topology.empty() ? std::string("-") : r.config.topology;
       }},
      {"sched_policy", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return std::string(simnet::to_string(r.config.scheduler.policy));
       }},
      {"jain_fairness", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(simnet::facility_jain_fairness(r.config, r.metrics));
       }},
      {"worst_tenant_p99_slowdown", [](const RunPoint&, const simnet::ExperimentResult& r) {
         return pretty(simnet::facility_worst_p99_slowdown(r.config, r.metrics));
       }},
      // Pooled p99 slowdown: every client's total latency over ITS tenant's
      // theoretical time (queue wait included), quantiled across the whole
      // population.
      {"p99_slowdown", [](const RunPoint&, const simnet::ExperimentResult& r) {
         const auto tenants = simnet::facility_tenant_stats(r.config, r.metrics);
         std::vector<double> slowdowns;
         slowdowns.reserve(r.metrics.clients.size());
         for (const simnet::ClientRecord& client : r.metrics.clients) {
           const std::size_t j = std::min<std::size_t>(client.tenant, tenants.size() - 1);
           if (tenants[j].t_theoretical_s > 0.0) {
             slowdowns.push_back(client.total_latency_s() / tenants[j].t_theoretical_s);
           }
         }
         return pretty(slowdowns.empty() ? 0.0 : stats::quantile(slowdowns, 0.99));
       }},
      {"mean_queue_wait_s", [](const RunPoint&, const simnet::ExperimentResult& r) {
         double wait = 0.0;
         for (const simnet::ClientRecord& client : r.metrics.clients) {
           wait += client.queue_wait_s();
         }
         return pretty(r.metrics.clients.empty()
                           ? 0.0
                           : wait / static_cast<double>(r.metrics.clients.size()));
       }},
  };
  return catalog;
}

}  // namespace

void render_plan_output(const OutputSpec& spec, const std::vector<RunPoint>& runs,
                        const std::vector<simnet::ExperimentResult>& results,
                        ScenarioOutput& output) {
  std::vector<const MetricFn*> metrics;
  metrics.reserve(spec.columns.size());
  for (const OutputColumn& column : spec.columns) {
    const auto it = metric_catalog().find(column.metric);
    if (it == metric_catalog().end()) {
      throw std::invalid_argument("OutputSpec: unknown metric '" + column.metric +
                                  "' for column '" + column.header + "'");
    }
    output.header.push_back(column.header);
    metrics.push_back(&it->second);
  }
  const std::size_t hop_count = static_cast<std::size_t>(spec.hop_columns);
  if (hop_count > 0) {
    for (auto& column : simnet::hop_csv_header(hop_count)) {
      output.header.push_back(std::move(column));
    }
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::vector<std::string> row;
    row.reserve(metrics.size());
    for (const MetricFn* metric : metrics) row.push_back((*metric)(runs[i], results[i]));
    if (hop_count > 0) {
      for (auto& cell : simnet::hop_csv_values(results[i].metrics.hops, hop_count)) {
        row.push_back(std::move(cell));
      }
    }
    output.add_row(std::move(row));
  }
  for (const std::string& note : spec.notes) output.add_note(note);
}

// --- sharding --------------------------------------------------------------

CellRange shard_range(int index, int count, std::size_t total) {
  if (count < 1 || index < 0 || index >= count) {
    throw std::invalid_argument("shard_range: need 0 <= index < count, got " +
                                std::to_string(index) + "/" + std::to_string(count));
  }
  const auto n = static_cast<std::size_t>(count);
  const auto i = static_cast<std::size_t>(index);
  return {total * i / n, total * (i + 1) / n};
}

// --- JSON ------------------------------------------------------------------

namespace {

constexpr const char* kFormatTag = "sss.experiment-plan/1";

// Integral field with bounds: hand-edited plan files must get a field-level
// error, not the undefined behavior of an unchecked double → int cast.
long long as_integer(const trace::JsonValue& json, const char* field, long long min,
                     long long max) {
  const double v = json.as_double();
  if (!std::isfinite(v) || v != std::floor(v) || v < static_cast<double>(min) ||
      v > static_cast<double>(max)) {
    plan_error(std::string(field) + " must be an integer in [" + std::to_string(min) +
               ", " + std::to_string(max) + "]");
  }
  return static_cast<long long>(v);
}

// The `base` section is written and read through one field list per struct
// (the `fields` overloads below), walked by JsonWriter and JsonReader alike:
// each key and its unit are spelled once.  A field's C++ type
// picks its conversion (Seconds <-> *_s, Bytes <-> *_bytes, DataRate <->
// *_bytes_per_s, uint64 seed <-> string); `integer` fields carry the bounds
// that guard the double -> int cast, `choice` fields their enum parser
// (written with simnet::to_string).  The range rules of WorkloadConfig's own
// fields are WorkloadConfig::validate()'s: their cast guard is ±kMaxCount.
// `optional` fields are left out when default or empty and may be absent;
// every other key is required.  `section` names the struct in errors.

class JsonWriter {
 public:
  template <class Section>
  static trace::JsonValue encode(const Section& section) {
    JsonWriter writer;
    // One field list serves both directions, so it takes a mutable
    // reference; the writer only reads through it.
    fields(writer, const_cast<Section&>(section));
    return std::move(writer.json_);
  }

  void section(const char* /*name*/) {}

  template <class T>
  void field(const char* key, const T& value) {
    json_[key] = encode(value);
  }

  template <class T>
  void optional(const char* key, const T& value) {
    if (!is_default(value)) json_[key] = encode(value);
  }

  template <class Int>
  void integer(const char* key, const Int& value, long long /*min*/, long long /*max*/) {
    json_[key] = static_cast<double>(value);
  }

  template <class Enum, class Parse>
  void choice(const char* key, const Enum& value, Parse /*parse*/) {
    json_[key] = simnet::to_string(value);
  }

 private:
  template <class T>
  static bool is_default(const T& value) {
    if constexpr (requires { value.empty(); }) {
      return value.empty();
    } else {
      return value == T{};
    }
  }

  static trace::JsonValue encode(double v) { return v; }
  static trace::JsonValue encode(bool v) { return v; }
  static trace::JsonValue encode(const std::string& v) { return v; }
  static trace::JsonValue encode(std::uint64_t v) { return trace::JsonValue::from_uint64(v); }
  static trace::JsonValue encode(units::Seconds v) { return v.seconds(); }
  static trace::JsonValue encode(units::Bytes v) { return v.bytes(); }
  static trace::JsonValue encode(units::DataRate v) { return v.bps(); }
  template <class T>
  static trace::JsonValue encode(const std::vector<T>& items) {
    trace::JsonValue array = trace::JsonValue::array();
    for (const T& item : items) array.push_back(encode(item));
    return array;
  }

  trace::JsonValue json_ = trace::JsonValue::object();
};

class JsonReader {
 public:
  template <class Section>
  static void decode(const trace::JsonValue& json, Section& section) {
    JsonReader reader(json);
    fields(reader, section);
  }

  void section(const char* name) { section_ = name; }

  template <class T>
  void field(const char* key, T& value) {
    decode(json_.at(key), value);
  }

  template <class T>
  void optional(const char* key, T& value) {
    if (const trace::JsonValue* json = json_.find(key)) decode(*json, value);
  }

  template <class Int>
  void integer(const char* key, Int& value, long long min, long long max) {
    value = static_cast<Int>(as_integer(json_.at(key), label(key).c_str(), min, max));
  }

  template <class Enum>
  void choice(const char* key, Enum& value,
              std::optional<Enum> (*parse)(std::string_view)) {
    const std::string& name = json_.at(key).as_string();
    const std::optional<Enum> parsed = parse(name);
    if (!parsed.has_value()) plan_error("unknown " + label(key) + " '" + name + "'");
    value = *parsed;
  }

 private:
  explicit JsonReader(const trace::JsonValue& json) : json_(json) {}

  std::string label(const char* key) const {
    return section_.empty() ? std::string(key) : section_ + " " + key;
  }

  static void decode(const trace::JsonValue& json, double& v) { v = json.as_double(); }
  static void decode(const trace::JsonValue& json, bool& v) { v = json.as_bool(); }
  static void decode(const trace::JsonValue& json, std::string& v) { v = json.as_string(); }
  static void decode(const trace::JsonValue& json, std::uint64_t& v) { v = json.as_uint64(); }
  static void decode(const trace::JsonValue& json, units::Seconds& v) {
    v = units::Seconds::of(json.as_double());
  }
  static void decode(const trace::JsonValue& json, units::Bytes& v) {
    v = units::Bytes::of(json.as_double());
  }
  static void decode(const trace::JsonValue& json, units::DataRate& v) {
    v = units::DataRate::bytes_per_second(json.as_double());
  }
  template <class T>
  static void decode(const trace::JsonValue& json, std::vector<T>& items) {
    for (const trace::JsonValue& item : json.as_array()) decode(item, items.emplace_back());
  }

  const trace::JsonValue& json_;
  std::string section_;
};

constexpr long long kMaxCount = 1000000000;
constexpr long long kMaxU32 = 4294967295LL;

template <class Io>
void fields(Io& io, simnet::LinkConfig& link) {
  io.field("name", link.name);
  io.field("capacity_bytes_per_s", link.capacity);
  io.field("propagation_delay_s", link.propagation_delay);
  io.field("buffer_bytes", link.buffer);
}

template <class Io>
void fields(Io& io, simnet::HopCrossTraffic& storm) {
  io.section("storm");
  io.integer("hop", storm.hop, -kMaxCount, kMaxCount);
  io.field("load", storm.load);
  io.field("start_s", storm.start);
  io.field("until_s", storm.until);
  io.field("mean_flow_size_bytes", storm.mean_flow_size);
  io.field("pareto_shape", storm.pareto_shape);
}

template <class Io>
void fields(Io& io, simnet::CalibrationKnobs& knobs) {
  io.field("trace_path", knobs.trace_path);
  io.field("operating_util", knobs.operating_util);
  io.field("true_alpha", knobs.true_alpha);
  io.field("true_theta", knobs.true_theta);
  io.field("congestion_slope", knobs.congestion_slope);
}

template <class Io>
void fields(Io& io, simnet::StorageKnobs& knobs) {
  io.field("zipf_skew", knobs.zipf_skew);
}

template <class Io>
void fields(Io& io, simnet::TenantSpec& tenant) {
  io.section("tenant");
  io.field("name", tenant.name);
  io.field("src", tenant.src);
  io.field("dst", tenant.dst);
  io.integer("concurrency", tenant.concurrency, -kMaxCount, kMaxCount);
  io.field("transfer_size_bytes", tenant.transfer_size);
  io.field("deadline_s", tenant.deadline_s);
}

template <class Io>
void fields(Io& io, simnet::SchedulerConfig& scheduler) {
  io.section("scheduler");
  io.choice("policy", scheduler.policy, simnet::sched_policy_from_string);
  io.integer("slots", scheduler.slots, -kMaxCount, kMaxCount);
  io.field("deadline_s", scheduler.deadline_s);
  io.field("burst_window_s", scheduler.burst_window_s);
  io.integer("burst_limit", scheduler.burst_limit, -kMaxCount, kMaxCount);
  io.field("backoff_s", scheduler.backoff_s);
}

template <class Io>
void fields(Io& io, simnet::TcpConfig& tcp) {
  io.section("tcp");
  io.integer("mss_bytes", tcp.mss_bytes, 0, kMaxU32);
  io.integer("header_bytes", tcp.header_bytes, 0, kMaxU32);
  io.integer("ack_bytes", tcp.ack_bytes, 0, kMaxU32);
  io.field("initial_cwnd", tcp.initial_cwnd);
  io.field("max_cwnd_packets", tcp.max_cwnd_packets);
  io.integer("dupack_threshold", tcp.dupack_threshold, 0, 1000000);
  io.field("initial_rto_s", tcp.initial_rto);
  io.field("min_rto_s", tcp.min_rto);
  io.field("max_rto_s", tcp.max_rto);
  io.field("hystart", tcp.hystart);
  io.field("hystart_delay_min_s", tcp.hystart_delay_min);
  io.field("hystart_delay_max_s", tcp.hystart_delay_max);
}

template <class Io>
void fields(Io& io, simnet::WorkloadConfig& config) {
  io.field("duration_s", config.duration);
  io.integer("concurrency", config.concurrency, -kMaxCount, kMaxCount);
  io.integer("parallel_flows", config.parallel_flows, -kMaxCount, kMaxCount);
  io.field("transfer_size_bytes", config.transfer_size);
  io.choice("mode", config.mode, simnet::spawn_mode_from_string);
  io.choice("arrivals", config.arrivals, simnet::arrival_process_from_string);
  io.field("seed", config.seed);
  io.field("start_jitter_s", config.start_jitter);
  io.field("drain_timeout_s", config.drain_timeout);
  io.field("background_load", config.background_load);
  io.field("background_mean_flow_size_bytes", config.background_mean_flow_size);
  io.field("background_pareto_shape", config.background_pareto_shape);
  io.field("link", config.link);
  io.optional("path_hops", config.path_hops);
  io.optional("hop_cross_traffic", config.hop_cross_traffic);
  // Default calibration, storage and facility sections are omitted so
  // sweep-plan dumps carry only what a scenario sets.
  io.optional("calibration", config.calibration);
  io.optional("storage", config.storage);
  io.optional("topology", config.topology);
  io.optional("tenants", config.tenants);
  io.optional("scheduler", config.scheduler);
  io.field("tcp", config.tcp);
}

const char* axis_kind_name(ParamAxis::Kind kind) {
  switch (kind) {
    case ParamAxis::Kind::kList:
      return "list";
    case ParamAxis::Kind::kLinspace:
      return "linspace";
    case ParamAxis::Kind::kLogspace:
      return "logspace";
    case ParamAxis::Kind::kTuples:
      return "tuples";
  }
  return "unknown";
}

trace::JsonValue axis_to_json(const ParamAxis& axis) {
  trace::JsonValue json = trace::JsonValue::object();
  json["kind"] = axis_kind_name(axis.kind);
  if (!axis.key.empty()) json["key"] = axis.key;
  if (!axis.name.empty()) json["name"] = axis.name;
  if (!axis.label_prefix.empty()) json["label_prefix"] = axis.label_prefix;
  if (!axis.label_suffix.empty()) json["label_suffix"] = axis.label_suffix;
  switch (axis.kind) {
    case ParamAxis::Kind::kList: {
      trace::JsonValue values = trace::JsonValue::array();
      for (const std::string& value : axis.values) values.push_back(value);
      json["values"] = std::move(values);
      break;
    }
    case ParamAxis::Kind::kLinspace:
    case ParamAxis::Kind::kLogspace:
      json["from"] = axis.from;
      json["to"] = axis.to;
      json["count"] = axis.count;
      break;
    case ParamAxis::Kind::kTuples: {
      trace::JsonValue points = trace::JsonValue::array();
      for (const AxisPoint& point : axis.points) {
        trace::JsonValue p = trace::JsonValue::object();
        if (!point.label.empty()) p["label"] = point.label;
        trace::JsonValue set = trace::JsonValue::array();
        for (const std::string& kv : point.set) set.push_back(kv);
        p["set"] = std::move(set);
        points.push_back(std::move(p));
      }
      json["points"] = std::move(points);
      break;
    }
  }
  return json;
}

ParamAxis axis_from_json(const trace::JsonValue& json) {
  ParamAxis axis;
  const std::string& kind = json.at("kind").as_string();
  if (const trace::JsonValue* key = json.find("key")) axis.key = key->as_string();
  if (const trace::JsonValue* name = json.find("name")) axis.name = name->as_string();
  if (const trace::JsonValue* p = json.find("label_prefix")) axis.label_prefix = p->as_string();
  if (const trace::JsonValue* s = json.find("label_suffix")) axis.label_suffix = s->as_string();
  if (kind == "list") {
    axis.kind = ParamAxis::Kind::kList;
    for (const trace::JsonValue& value : json.at("values").as_array()) {
      axis.values.push_back(value.as_string());
    }
  } else if (kind == "linspace" || kind == "logspace") {
    axis.kind = kind == "linspace" ? ParamAxis::Kind::kLinspace : ParamAxis::Kind::kLogspace;
    axis.from = json.at("from").as_double();
    axis.to = json.at("to").as_double();
    axis.count =
        static_cast<int>(as_integer(json.at("count"), "axis count", 0, 1000000000));
  } else if (kind == "tuples") {
    axis.kind = ParamAxis::Kind::kTuples;
    for (const trace::JsonValue& point_json : json.at("points").as_array()) {
      AxisPoint point;
      if (const trace::JsonValue* label = point_json.find("label")) {
        point.label = label->as_string();
      }
      for (const trace::JsonValue& kv : point_json.at("set").as_array()) {
        point.set.push_back(kv.as_string());
      }
      axis.points.push_back(std::move(point));
    }
  } else {
    plan_error("unknown axis kind '" + kind + "'");
  }
  return axis;
}

trace::JsonValue output_to_json(const OutputSpec& output) {
  trace::JsonValue json = trace::JsonValue::object();
  trace::JsonValue columns = trace::JsonValue::array();
  for (const OutputColumn& column : output.columns) {
    trace::JsonValue c = trace::JsonValue::object();
    c["header"] = column.header;
    c["metric"] = column.metric;
    columns.push_back(std::move(c));
  }
  json["columns"] = std::move(columns);
  if (output.hop_columns > 0) json["hop_columns"] = output.hop_columns;
  if (!output.notes.empty()) {
    trace::JsonValue notes = trace::JsonValue::array();
    for (const std::string& note : output.notes) notes.push_back(note);
    json["notes"] = std::move(notes);
  }
  return json;
}

OutputSpec output_from_json(const trace::JsonValue& json) {
  OutputSpec output;
  for (const trace::JsonValue& column_json : json.at("columns").as_array()) {
    output.columns.push_back(
        {column_json.at("header").as_string(), column_json.at("metric").as_string()});
  }
  if (const trace::JsonValue* hops = json.find("hop_columns")) {
    output.hop_columns = static_cast<int>(as_integer(*hops, "hop_columns", 0, 1024));
  }
  if (const trace::JsonValue* notes = json.find("notes")) {
    for (const trace::JsonValue& note : notes->as_array()) {
      output.notes.push_back(note.as_string());
    }
  }
  return output;
}

}  // namespace

trace::JsonValue ExperimentPlan::to_json() const {
  trace::JsonValue json = trace::JsonValue::object();
  json["format"] = kFormatTag;
  json["scenario"] = scenario;
  json["substrate"] = to_string(substrate);
  json["scale_duration"] = scale_duration;
  json["repeat"] = repeat;
  if (fixed_seed.has_value()) {
    json["fixed_seed"] = trace::JsonValue::from_uint64(*fixed_seed);
  }
  json["base"] = JsonWriter::encode(base);
  trace::JsonValue axes_json = trace::JsonValue::array();
  for (const ParamAxis& axis : axes) axes_json.push_back(axis_to_json(axis));
  json["axes"] = std::move(axes_json);
  if (!output.columns.empty() || output.hop_columns > 0 || !output.notes.empty()) {
    json["output"] = output_to_json(output);
  }
  return json;
}

ExperimentPlan ExperimentPlan::from_json(const trace::JsonValue& json) {
  if (json.find("include") != nullptr) {
    plan_error(
        "\"include\" is resolved by load_plan_file (it needs the including "
        "file's directory); from_json only accepts fully composed plans");
  }
  const trace::JsonValue* format = json.find("format");
  if (format == nullptr || format->as_string() != kFormatTag) {
    plan_error(std::string("expected \"format\": \"") + kFormatTag + "\"");
  }
  ExperimentPlan plan;
  plan.scenario = json.at("scenario").as_string();
  const auto substrate = substrate_from_string(json.at("substrate").as_string());
  if (!substrate.has_value()) plan_error("unknown substrate");
  plan.substrate = *substrate;
  plan.scale_duration = json.at("scale_duration").as_bool();
  plan.repeat = static_cast<int>(as_integer(json.at("repeat"), "repeat", 0, 1000000000));
  if (const trace::JsonValue* seed = json.find("fixed_seed")) {
    plan.fixed_seed = seed->as_uint64();
  }
  JsonReader::decode(json.at("base"), plan.base);
  for (const trace::JsonValue& axis : json.at("axes").as_array()) {
    plan.axes.push_back(axis_from_json(axis));
  }
  if (const trace::JsonValue* output = json.find("output")) {
    plan.output = output_from_json(*output);
  }
  return plan;
}

// --- plan-file composition ("include") -------------------------------------

namespace {

// Overriding identity of an axis: the override-catalog key for value axes,
// the name for tuples axes.  Empty = no identity (always appended).
std::string axis_identity(const trace::JsonValue& axis_json) {
  if (!axis_json.is_object()) return "";
  if (const trace::JsonValue* key = axis_json.find("key")) {
    if (key->is_string() && !key->as_string().empty()) return key->as_string();
  }
  if (const trace::JsonValue* name = axis_json.find("name")) {
    if (name->is_string() && !name->as_string().empty()) return name->as_string();
  }
  return "";
}

// Overlay `fragment` (the including file, minus its "include" key) onto
// `merged` (the composed included plan), with the key-by-key "base" merge
// and the identity-matched "axes" override described in plan.hpp.
void overlay_plan_json(trace::JsonValue& merged, const trace::JsonValue& fragment,
                       const std::string& fragment_path) {
  for (const auto& [key, value] : fragment.as_object()) {
    if (key == "include") continue;
    if (key == "base" && value.is_object()) {
      const trace::JsonValue* included_base = merged.find("base");
      if (included_base != nullptr && included_base->is_object()) {
        trace::JsonValue base = *included_base;
        for (const auto& [field, field_value] : value.as_object()) {
          base[field] = field_value;
        }
        merged["base"] = std::move(base);
        continue;
      }
    }
    if (key == "axes" && value.is_array()) {
      const trace::JsonValue* included_axes = merged.find("axes");
      if (included_axes != nullptr && included_axes->is_array()) {
        trace::JsonValue::Array axes = included_axes->as_array();
        std::map<std::string, bool> overridden;
        for (const trace::JsonValue& axis_json : value.as_array()) {
          const std::string identity = axis_identity(axis_json);
          if (!identity.empty()) {
            if (overridden.count(identity) != 0) {
              plan_error("include conflict in " + fragment_path +
                         ": two axes override '" + identity + "'");
            }
            overridden[identity] = true;
          }
          bool replaced = false;
          if (!identity.empty()) {
            for (trace::JsonValue& existing : axes) {
              if (axis_identity(existing) == identity) {
                existing = axis_json;
                replaced = true;
                break;
              }
            }
          }
          if (!replaced) axes.push_back(axis_json);
        }
        merged["axes"] = trace::JsonValue(std::move(axes));
        continue;
      }
    }
    merged[key] = value;
  }
}

trace::JsonValue load_plan_json_chain(const std::string& path,
                                      std::vector<std::string>& chain) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path canonical = fs::weakly_canonical(path, ec);
  if (ec) canonical = path;
  for (const std::string& visited : chain) {
    if (visited == canonical.string()) {
      std::string cycle;
      for (const std::string& link : chain) {
        cycle += fs::path(link).filename().string() + " -> ";
      }
      cycle += canonical.filename().string();
      plan_error("plan include cycle: " + cycle);
    }
  }
  chain.push_back(canonical.string());

  trace::JsonValue json = trace::JsonValue::parse(trace::read_text_file(path));
  if (!json.is_object()) plan_error("plan file " + path + " is not a JSON object");

  const trace::JsonValue* include = json.find("include");
  if (include == nullptr) {
    chain.pop_back();
    return json;
  }
  if (!include->is_string() || include->as_string().empty()) {
    plan_error("\"include\" in " + path + " must be a non-empty file path");
  }
  // Resolve relative to the including file, so a plan directory is
  // relocatable as a unit.
  fs::path include_path(include->as_string());
  if (include_path.is_relative()) {
    include_path = fs::path(path).parent_path() / include_path;
  }
  trace::JsonValue merged = load_plan_json_chain(include_path.string(), chain);
  overlay_plan_json(merged, json, path);
  chain.pop_back();
  return merged;
}

}  // namespace

trace::JsonValue load_plan_json(const std::string& path) {
  std::vector<std::string> chain;
  return load_plan_json_chain(path, chain);
}

ExperimentPlan load_plan_file(const std::string& path) {
  return ExperimentPlan::from_json(load_plan_json(path));
}

}  // namespace sss::scenario
