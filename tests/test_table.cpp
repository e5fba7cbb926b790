// Tests for the text-table printer.
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/table.hpp"

namespace mpa {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "v"});
  t.row().add("long-name").add(1);
  t.row().add("x").add(22);
  const std::string s = t.str();
  // Header, rule, two rows.
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  // Every line has the same column start for "v"/values.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(TextTable, ShortRowsRenderBlank) {
  TextTable t({"a", "b", "c"});
  t.row().add("only");
  const std::string s = t.str();
  EXPECT_NE(s.find("only"), std::string::npos);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), PreconditionError);
}

TEST(TextTable, RejectsOverflowAndOrphanAdd) {
  TextTable t({"a"});
  EXPECT_THROW(t.add("no row yet"), PreconditionError);
  t.row().add("x");
  EXPECT_THROW(t.add("overflow"), PreconditionError);
}

TEST(TextTable, NumericFormatting) {
  TextTable t({"v"});
  t.row().add(0.123456, 3);
  EXPECT_NE(t.str().find("0.123"), std::string::npos);
}

}  // namespace
}  // namespace mpa
