// table.hpp — aligned console tables.
//
// Every bench binary prints rows in the same layout the paper's tables and
// figure captions use; this small formatter keeps those printouts consistent
// (right-aligned numerics, left-aligned text, column separators).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sss::trace {

class ConsoleTable {
 public:
  explicit ConsoleTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  // Format a double with `precision` significant digits (default rendering
  // used by all benches).
  [[nodiscard]] static std::string num(double v, int precision = 4);

  // Render with a separator line under the header.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] std::size_t column_count() const { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sss::trace
