#include "obs/manifest.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace sss::obs {

namespace {

std::string format_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

std::string format_s(double s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", s);
  return buf;
}

}  // namespace

trace::JsonValue RunManifest::to_json() const {
  trace::JsonValue doc = trace::JsonValue::object();
  doc["schema"] = schema;
  doc["scenario"] = scenario;
  doc["scale"] = scale;
  doc["seed"] = trace::JsonValue::from_uint64(seed);
  doc["threads"] = threads;
  doc["total_cells"] = total_cells;
  trace::JsonValue cell_array = trace::JsonValue::array();
  for (const CellMetrics& cell : cells) {
    trace::JsonValue c = trace::JsonValue::object();
    c["index"] = cell.index;
    c["label"] = cell.label;
    trace::JsonValue det = trace::JsonValue::object();
    det["events_processed"] = static_cast<double>(cell.events_processed);
    det["queue_high_water"] = static_cast<double>(cell.queue_high_water);
    det["arena_reserved_bytes"] = static_cast<double>(cell.arena_reserved_bytes);
    det["sim_duration_s"] = cell.sim_duration_s;
    c["deterministic"] = std::move(det);
    trace::JsonValue timing = trace::JsonValue::object();
    timing["wall_ms"] = cell.wall_ms;
    c["timing"] = std::move(timing);
    cell_array.push_back(std::move(c));
  }
  doc["cells"] = std::move(cell_array);
  return doc;
}

std::string RunManifest::to_json_text() const { return to_json().dump(1) + "\n"; }

RunManifest RunManifest::from_json(const trace::JsonValue& json) {
  RunManifest m;
  m.schema = static_cast<int>(json.at("schema").as_double());
  if (m.schema != 1) {
    throw std::runtime_error("manifest: unsupported schema " + std::to_string(m.schema));
  }
  m.scenario = json.at("scenario").as_string();
  m.scale = json.at("scale").as_double();
  m.seed = json.at("seed").as_uint64();
  m.threads = static_cast<int>(json.at("threads").as_double());
  m.total_cells = static_cast<std::size_t>(json.at("total_cells").as_uint64());
  for (const trace::JsonValue& c : json.at("cells").as_array()) {
    CellMetrics cell;
    cell.index = static_cast<std::size_t>(c.at("index").as_uint64());
    cell.label = c.at("label").as_string();
    const trace::JsonValue& det = c.at("deterministic");
    cell.events_processed = det.at("events_processed").as_uint64();
    cell.queue_high_water = det.at("queue_high_water").as_uint64();
    cell.arena_reserved_bytes = det.at("arena_reserved_bytes").as_uint64();
    cell.sim_duration_s = det.at("sim_duration_s").as_double();
    cell.wall_ms = c.at("timing").at("wall_ms").as_double();
    m.cells.push_back(std::move(cell));
  }
  return m;
}

RunManifest RunManifest::from_json_text(std::string_view text) {
  return from_json(trace::JsonValue::parse(text));
}

RunManifest merge_manifests(const std::vector<RunManifest>& parts) {
  if (parts.empty()) throw std::invalid_argument("merge_manifests: no inputs");
  RunManifest merged = parts.front();
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const RunManifest& part = parts[i];
    if (part.scenario != merged.scenario) {
      throw std::invalid_argument("merge_manifests: scenario mismatch ('" +
                                  merged.scenario + "' vs '" + part.scenario + "')");
    }
    if (part.scale != merged.scale || part.seed != merged.seed) {
      throw std::invalid_argument(
          "merge_manifests: scale/seed mismatch — shards from different runs");
    }
    if (part.total_cells != merged.total_cells) {
      throw std::invalid_argument("merge_manifests: total_cells mismatch");
    }
    merged.cells.insert(merged.cells.end(), part.cells.begin(), part.cells.end());
  }
  std::sort(merged.cells.begin(), merged.cells.end(),
            [](const CellMetrics& a, const CellMetrics& b) { return a.index < b.index; });
  for (std::size_t i = 1; i < merged.cells.size(); ++i) {
    if (merged.cells[i].index == merged.cells[i - 1].index) {
      throw std::invalid_argument("merge_manifests: duplicate cell index " +
                                  std::to_string(merged.cells[i].index));
    }
  }
  return merged;
}

std::vector<std::string> cost_report_header() {
  return {"rank",   "cell",          "label",          "wall_ms",
          "events", "events_per_ms", "queue_high_water", "sim_s"};
}

std::vector<std::vector<std::string>> cost_report_rows(const RunManifest& manifest,
                                                       std::size_t top_n) {
  std::vector<CellMetrics> ranked = manifest.cells;
  std::sort(ranked.begin(), ranked.end(), [](const CellMetrics& a, const CellMetrics& b) {
    if (a.wall_ms != b.wall_ms) return a.wall_ms > b.wall_ms;
    return a.index < b.index;  // stable tie-break for zero-cost cells
  });
  if (top_n > 0 && ranked.size() > top_n) ranked.resize(top_n);
  std::vector<std::vector<std::string>> rows;
  rows.reserve(ranked.size());
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    const CellMetrics& cell = ranked[r];
    const double per_ms =
        cell.wall_ms > 0.0 ? static_cast<double>(cell.events_processed) / cell.wall_ms
                           : 0.0;
    rows.push_back({std::to_string(r + 1), std::to_string(cell.index), cell.label,
                    format_ms(cell.wall_ms), std::to_string(cell.events_processed),
                    format_s(per_ms), std::to_string(cell.queue_high_water),
                    format_s(cell.sim_duration_s)});
  }
  return rows;
}

}  // namespace sss::obs
