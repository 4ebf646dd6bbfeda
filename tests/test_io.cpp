#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "io/csv.hpp"
#include "io/table.hpp"
#include "util/assert.hpp"
#include "temp_path.hpp"

namespace emts::io {
namespace {

TEST(Table, RendersHeadersAndRows) {
  Table t{{"name", "value"}};
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ColumnsAreAligned) {
  Table t{{"a", "b"}};
  t.add_row({"looooooong", "x"});
  t.add_row({"s", "y"});
  const std::string out = t.render();
  // 'x' and 'y' must start at the same column.
  const auto line_of = [&](const std::string& needle) {
    const auto pos = out.find(needle);
    const auto line_start = out.rfind('\n', pos) + 1;
    return pos - line_start;
  };
  EXPECT_EQ(line_of("x"), line_of("y"));
}

TEST(Table, RejectsMismatchedRow) {
  Table t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), emts::precondition_error);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 3), "3.14");
  EXPECT_EQ(Table::num(29.976, 5), "29.976");
}

class CsvRoundTrip : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_ = temp_path("emts_test", ".csv");
};

TEST_F(CsvRoundTrip, WriteThenReadRecoversData) {
  const std::vector<std::string> names{"t", "v"};
  const std::vector<std::vector<double>> cols{{0.0, 1.0, 2.0}, {0.5, -1.25, 3.75}};
  write_csv(path_, names, cols);

  std::vector<std::string> read_names;
  const auto read_cols = read_csv(path_, &read_names);
  EXPECT_EQ(read_names, names);
  ASSERT_EQ(read_cols.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    ASSERT_EQ(read_cols[c].size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(read_cols[c][r], cols[c][r]);
  }
}

TEST_F(CsvRoundTrip, PreservesPrecision) {
  write_csv(path_, {"x"}, {{1.23456789012e-7}});
  const auto cols = read_csv(path_);
  EXPECT_NEAR(cols[0][0], 1.23456789012e-7, 1e-18);
}

TEST_F(CsvRoundTrip, RejectsRaggedColumns) {
  EXPECT_THROW(write_csv(path_, {"a", "b"}, {{1.0}, {1.0, 2.0}}), emts::precondition_error);
  EXPECT_THROW(write_csv(path_, {"a"}, {{1.0}, {2.0}}), emts::precondition_error);
}

TEST(Csv, ReadRejectsMissingFile) {
  EXPECT_THROW(read_csv("/nonexistent/path/file.csv"), emts::precondition_error);
}

}  // namespace
}  // namespace emts::io
