// Tests for the console table formatter.
#include "trace/table.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace sss::trace {
namespace {

TEST(ConsoleTable, RejectsEmptyHeaderAndMismatchedRows) {
  EXPECT_THROW(ConsoleTable({}), std::invalid_argument);
  ConsoleTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(ConsoleTable, RendersAlignedColumns) {
  ConsoleTable t({"load", "t_worst"});
  t.add_row({"16%", "0.2"});
  t.add_row({"96%", "6.01"});
  const std::string out = t.render();
  // Header, separator, two rows.
  int lines = 0;
  for (char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);
  // Separator of dashes present.
  EXPECT_NE(out.find("----"), std::string::npos);
  // Columns right-aligned: "6.01" ends each line at same offset as header.
  std::istringstream stream(out);
  std::string header_line, sep, row1, row2;
  std::getline(stream, header_line);
  std::getline(stream, sep);
  std::getline(stream, row1);
  std::getline(stream, row2);
  EXPECT_EQ(header_line.size(), row1.size());
  EXPECT_EQ(row1.size(), row2.size());
}

TEST(ConsoleTable, CountsRowsAndColumns) {
  ConsoleTable t({"x"});
  EXPECT_EQ(t.column_count(), 1u);
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({"1"});
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(ConsoleTable, NumFormatting) {
  EXPECT_EQ(ConsoleTable::num(0.16), "0.16");
  EXPECT_EQ(ConsoleTable::num(1234.5678, 6), "1234.57");
  EXPECT_EQ(ConsoleTable::num(1e-9, 2), "1e-09");
}

}  // namespace
}  // namespace sss::trace
