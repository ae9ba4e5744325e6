// Unit tests for Table rendering (ASCII / CSV / Markdown).
#include "qbarren/common/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "qbarren/common/error.hpp"

namespace qbarren {
namespace {

TEST(Table, RequiresAtLeastOneColumn) {
  EXPECT_THROW(Table(std::vector<std::string>{}), InvalidArgument);
}

TEST(Table, AddRowChecksColumnCount) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), InvalidArgument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), InvalidArgument);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, PushBuildsRowsIncrementally) {
  Table t({"name", "value"});
  t.begin_row();
  t.push(std::string("x"));
  t.push(1.5, 2);
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.data()[0][1], "1.50");
}

TEST(Table, PushWithoutBeginRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.push(std::string("x")), InvalidArgument);
}

TEST(Table, DoubleBeginRowThrows) {
  Table t({"a", "b"});
  t.begin_row();
  t.push(std::string("1"));
  EXPECT_THROW(t.begin_row(), InvalidArgument);
}

TEST(Table, AddRowWhileRowOpenThrows) {
  Table t({"a", "b"});
  t.begin_row();
  t.push(std::string("1"));
  EXPECT_THROW(t.add_row({"x", "y"}), InvalidArgument);
}

TEST(Table, PushSciFormatsScientific) {
  Table t({"v"});
  t.begin_row();
  t.push_sci(0.000123, 2);
  EXPECT_EQ(t.data()[0][0], "1.23e-04");
}

TEST(Table, PushIntegerTypes) {
  Table t({"a"});
  t.begin_row();
  t.push(std::size_t{42});
  EXPECT_EQ(t.data()[0][0], "42");
}

TEST(Table, AsciiAlignsColumns) {
  Table t({"x", "long-header"});
  t.add_row({"12345", "y"});
  const std::string ascii = t.to_ascii();
  // Header row, separator, one data row.
  EXPECT_NE(ascii.find("| x     | long-header |"), std::string::npos);
  EXPECT_NE(ascii.find("| 12345 | y           |"), std::string::npos);
  EXPECT_NE(ascii.find("|-------|-"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"a", "b"});
  t.add_row({"plain", "has,comma"});
  t.add_row({"has\"quote", "multi\nline"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("plain,\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
  EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);
}

TEST(Table, CsvHasHeaderAndRows) {
  Table t({"q", "var"});
  t.add_row({"2", "0.1"});
  t.add_row({"4", "0.01"});
  EXPECT_EQ(t.to_csv(), "q,var\n2,0.1\n4,0.01\n");
}

TEST(Table, MarkdownRendering) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| a | b |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| 1 | 2 |"), std::string::npos);
}

TEST(Table, WriteCsvRoundTrips) {
  Table t({"k", "v"});
  t.add_row({"a", "1"});
  const std::string path = ::testing::TempDir() + "/qbarren_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "k,v\na,1\n");
  std::remove(path.c_str());
}

TEST(Table, WriteCsvBadPathThrows) {
  Table t({"a"});
  EXPECT_THROW(t.write_csv("/nonexistent-dir-zz/x.csv"), Error);
}

TEST(FormatHelpers, FixedAndScientific) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-1.0, 0), "-1");
  EXPECT_EQ(format_sci(12300.0, 3), "1.230e+04");
}

}  // namespace
}  // namespace qbarren
