// csv.hpp — minimal CSV reading/writing for experiment logs.
//
// Scenarios write their rows both to stdout (human tables) and, with
// `scenario_runner --csv-dir`, to CSV files so the figures can be
// re-plotted externally.  The implementation covers RFC-4180 quoting (commas, quotes,
// newlines inside fields) — enough for round-tripping our own logs.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace sss::trace {

class CsvWriter {
 public:
  // Writes to a caller-owned stream (kept alive by the caller).
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void write_row(const std::vector<std::string>& fields);
  // Convenience for mixed text/numeric rows.
  void write_header(const std::vector<std::string>& names) { write_row(names); }

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

  // Quote a field per RFC 4180 when needed.
  [[nodiscard]] static std::string escape(std::string_view field);

 private:
  std::ostream& out_;
  std::size_t rows_ = 0;
};

struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  [[nodiscard]] std::size_t column_index(std::string_view name) const;
};

// Write a whole table (header + rows) to `path` in one call — the
// scenario runner's CSV export.  The write is atomic (temp file + rename,
// trace/atomic_io.hpp), so a killed process never leaves a truncated CSV.
// Throws std::runtime_error when the file cannot be written.
void write_csv_file(const std::string& path, const std::vector<std::string>& header,
                    const std::vector<std::vector<std::string>>& rows);

// Parse CSV text; first row becomes the header.  Handles quoted fields with
// embedded separators/newlines and doubled quotes.
[[nodiscard]] CsvTable parse_csv(std::string_view text);

// Read and parse a CSV file.  Throws std::runtime_error if unreadable.
[[nodiscard]] CsvTable read_csv_file(const std::string& path);

}  // namespace sss::trace
