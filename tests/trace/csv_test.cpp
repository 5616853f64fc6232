// Tests for CSV writing/parsing round trips.
#include "trace/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sss::trace {
namespace {

TEST(CsvWriter, EscapesOnlyWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("has,comma"), "\"has,comma\"");
  EXPECT_EQ(CsvWriter::escape("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("has\nnewline"), "\"has\nnewline\"");
  EXPECT_EQ(CsvWriter::escape(""), "");
}

TEST(CsvWriter, WritesRowsToStream) {
  std::ostringstream out;
  CsvWriter w(out);
  w.write_header({"a", "b"});
  w.write_row({"1", "x,y"});
  EXPECT_EQ(out.str(), "a,b\n1,\"x,y\"\n");
  EXPECT_EQ(w.rows_written(), 2u);
}

TEST(ParseCsv, SimpleTable) {
  const auto table = parse_csv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_EQ(table.header.size(), 3u);
  EXPECT_EQ(table.header[0], "a");
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][1], "2");
  EXPECT_EQ(table.rows[1][2], "6");
}

TEST(ParseCsv, QuotedFieldsWithSeparatorsAndQuotes) {
  const auto table = parse_csv("name,note\nalpha,\"x,y\"\nbeta,\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][1], "x,y");
  EXPECT_EQ(table.rows[1][1], "say \"hi\"");
}

TEST(ParseCsv, EmbeddedNewlineInQuotes) {
  const auto table = parse_csv("a,b\n\"line1\nline2\",2\n");
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], "line1\nline2");
}

TEST(ParseCsv, ToleratesCrlfAndMissingTrailingNewline) {
  const auto table = parse_csv("a,b\r\n1,2\r\n3,4");
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[1][1], "4");
}

TEST(ParseCsv, EmptyFieldsPreserved) {
  const auto table = parse_csv("a,b,c\n,,\n1,,3\n");
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0].size(), 3u);
  EXPECT_EQ(table.rows[0][1], "");
  EXPECT_EQ(table.rows[1][1], "");
}

TEST(CsvTable, ColumnIndexLookup) {
  const auto table = parse_csv("x,y,z\n1,2,3\n");
  EXPECT_EQ(table.column_index("y"), 1u);
  EXPECT_THROW((void)table.column_index("missing"), std::out_of_range);
}

TEST(CsvRoundTrip, FileWriteThenRead) {
  const std::string path = ::testing::TempDir() + "/sss_csv_roundtrip.csv";
  {
    std::ofstream file(path);
    CsvWriter w(file);
    w.write_header({"utilization", "t_worst", "note"});
    w.write_row({"0.64", "1.2", "tier 2, ok"});
    w.write_row({"0.96", "6.0", "severe \"congestion\""});
  }
  const auto table = read_csv_file(path);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][table.column_index("note")], "tier 2, ok");
  EXPECT_EQ(table.rows[1][table.column_index("note")], "severe \"congestion\"");
  std::remove(path.c_str());
}

TEST(ReadCsvFile, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent-xyz.csv"), std::runtime_error);
}

TEST(WriteCsvFile, WholeTableRoundTrips) {
  const std::string path = ::testing::TempDir() + "/sss_csv_table.csv";
  write_csv_file(path, {"a", "b"}, {{"1", "x,y"}, {"2", "z"}});
  const auto table = read_csv_file(path);
  ASSERT_EQ(table.header.size(), 2u);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][table.column_index("b")], "x,y");
  EXPECT_EQ(table.rows[1][table.column_index("a")], "2");
  std::remove(path.c_str());
}

TEST(WriteCsvFile, UnwritablePathThrows) {
  EXPECT_THROW(write_csv_file("/nonexistent-dir-xyz/out.csv", {"a"}, {}),
               std::runtime_error);
}

}  // namespace
}  // namespace sss::trace
