#include "trace/table.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace sss::trace {

ConsoleTable::ConsoleTable(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("ConsoleTable needs at least one column");
}

void ConsoleTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("ConsoleTable row width mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string ConsoleTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string ConsoleTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) line += "  ";
      // Right-align; header gets the same treatment for visual alignment.
      line.append(widths[c] - row[c].size(), ' ');
      line += row[c];
    }
    line += '\n';
    return line;
  };

  std::string out = render_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c ? 2 : 0);
  out.append(total, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace sss::trace
