#include "trace/csv.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "trace/atomic_io.hpp"

namespace sss::trace {

std::string CsvWriter::escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
  ++rows_;
}

std::size_t CsvTable::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw std::out_of_range("CsvTable: no column named " + std::string(name));
}

CsvTable parse_csv(std::string_view text) {
  CsvTable table;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
  };
  auto end_row = [&] {
    end_field();
    if (table.header.empty()) {
      table.header = std::move(row);
    } else {
      table.rows.push_back(std::move(row));
    }
    row.clear();
    row_has_content = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        end_field();
        row_has_content = true;
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        if (row_has_content || !field.empty() || !row.empty()) end_row();
        break;
      default:
        field += c;
        row_has_content = true;
        break;
    }
  }
  if (row_has_content || !field.empty() || !row.empty()) end_row();
  return table;
}

void write_csv_file(const std::string& path, const std::vector<std::string>& header,
                    const std::vector<std::vector<std::string>>& rows) {
  // Serialize in memory and persist atomically (temp file + rename): a
  // crash mid-export leaves no truncated CSV for a later merge to ingest.
  std::ostringstream buffer;
  CsvWriter writer(buffer);
  writer.write_header(header);
  for (const auto& row : rows) writer.write_row(row);
  write_text_file_atomic(path, buffer.str());
}

CsvTable read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) throw std::runtime_error("read_csv_file: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_csv(buffer.str());
}

}  // namespace sss::trace
