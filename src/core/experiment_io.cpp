#include "core/experiment_io.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "trace/atomic_io.hpp"
#include "trace/csv.hpp"
#include "trace/parse.hpp"

namespace sss::core {

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Strict shared parser (trace/parse.hpp) — rejects the leading-whitespace
// and hex forms the previous std::stod-based reader silently accepted.
double parse_double(const std::string& field, const char* context) {
  const auto v = trace::parse_double(field);
  if (!v.has_value()) {
    throw std::runtime_error(std::string("experiment_io: bad number in ") + context +
                             ": '" + field + "'");
  }
  return *v;
}

}  // namespace

std::string transfer_trace_to_csv(const std::vector<TransferRecord>& records) {
  std::ostringstream out;
  trace::CsvWriter writer(out);
  writer.write_header({"transfer_id", "load_level", "start_s", "end_s", "bytes",
                       "link_gbps", "io_s"});
  for (const auto& r : records) {
    writer.write_row({std::to_string(r.transfer_id), fmt(r.load_level), fmt(r.start_s),
                      fmt(r.end_s), fmt(r.bytes), fmt(r.link_gbps), fmt(r.io_s)});
  }
  return out.str();
}

std::vector<TransferRecord> transfer_trace_from_csv(const std::string& text) {
  const trace::CsvTable table = trace::parse_csv(text);
  const std::size_t id = table.column_index("transfer_id");
  const std::size_t level = table.column_index("load_level");
  const std::size_t start = table.column_index("start_s");
  const std::size_t end = table.column_index("end_s");
  const std::size_t bytes = table.column_index("bytes");
  const std::size_t link = table.column_index("link_gbps");
  const std::size_t io = table.column_index("io_s");

  std::vector<TransferRecord> out;
  out.reserve(table.rows.size());
  for (std::size_t row_index = 0; row_index < table.rows.size(); ++row_index) {
    const auto& row = table.rows[row_index];
    if (row.size() != table.header.size()) {
      throw std::runtime_error("experiment_io: truncated transfer-trace row " +
                               std::to_string(row_index));
    }
    TransferRecord r;
    const auto parsed_id = trace::parse_uint64(row[id]);
    if (!parsed_id.has_value()) {
      throw std::runtime_error("experiment_io: bad number in transfer_id: '" + row[id] +
                               "'");
    }
    r.transfer_id = *parsed_id;
    r.load_level = parse_double(row[level], "load_level");
    r.start_s = parse_double(row[start], "start_s");
    r.end_s = parse_double(row[end], "end_s");
    r.bytes = parse_double(row[bytes], "bytes");
    r.link_gbps = parse_double(row[link], "link_gbps");
    r.io_s = parse_double(row[io], "io_s");
    // Congestion campaigns run one load level at a time; interleaved or
    // descending levels mean a mangled file, not a reorderable one.
    if (!out.empty() && r.load_level < out.back().load_level) {
      throw std::runtime_error(
          "experiment_io: transfer-trace row " + std::to_string(row_index) +
          " has load_level " + row[level] +
          " after a higher level (rows must be grouped by non-decreasing load_level)");
    }
    out.push_back(r);
  }
  return out;
}

void write_transfer_trace(const std::string& path,
                          const std::vector<TransferRecord>& records) {
  trace::write_text_file_atomic(path, transfer_trace_to_csv(records));
}

std::vector<TransferRecord> read_transfer_trace(const std::string& path) {
  return transfer_trace_from_csv(trace::read_text_file(path));
}

}  // namespace sss::core
