#include <gtest/gtest.h>

#include "io/table.hpp"
#include "util/assert.hpp"

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

}  // namespace
}  // namespace emts::io
