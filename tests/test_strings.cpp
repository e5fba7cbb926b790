// Tests for string utilities.
#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

using Views = std::vector<std::string_view>;

TEST(Split, BasicAndEmptyFields) {
  EXPECT_EQ(split_views("a,b,c", ','), (Views{"a", "b", "c"}));
  EXPECT_EQ(split_views("a,,c", ','), (Views{"a", "", "c"}));
  EXPECT_EQ(split_views("", ','), (Views{""}));
  EXPECT_EQ(split_views(",", ','), (Views{"", ""}));
}

TEST(SplitLines, StripsOneCarriageReturnPerLine) {
  EXPECT_EQ(split_line_views("a\r\nb\nc\r\n"), (Views{"a", "b", "c", ""}));
  EXPECT_EQ(split_line_views("a\r\r\n\r\n"), (Views{"a\r", "", ""}));
  EXPECT_EQ(split_line_views("\r"), (Views{""}));
  EXPECT_EQ(split_line_views(""), (Views{""}));
}

TEST(SplitWs, DropsRuns) {
  EXPECT_EQ(split_ws_views("  a \t b  c "), (Views{"a", "b", "c"}));
  EXPECT_TRUE(split_ws_views("   ").empty());
  EXPECT_TRUE(split_ws_views("").empty());
}

TEST(Trim, Whitespace) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("\t x y \n"), "x y");
  EXPECT_EQ(trim("   "), "");
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({}, ","), "");
}

TEST(IndentOf, CountsLeading) {
  EXPECT_EQ(indent_of("  x"), 2u);
  EXPECT_EQ(indent_of("x"), 0u);
  EXPECT_EQ(indent_of("\t x"), 2u);
  EXPECT_EQ(indent_of(""), 0u);
}

// Prefix checks use the standard member (the automation classifier's
// "svc-" test among them).
TEST(StartsWith, Basic) {
  using namespace std::string_view_literals;
  EXPECT_TRUE("svc-deploy"sv.starts_with("svc-"));
  EXPECT_FALSE("alice"sv.starts_with("svc-"));
  EXPECT_TRUE("x"sv.starts_with(""));
  EXPECT_FALSE(""sv.starts_with("x"));
}

TEST(FormatDouble, TrimsZeros) {
  EXPECT_EQ(format_double(1.25, 4), "1.25");
  EXPECT_EQ(format_double(3.0, 4), "3");
  EXPECT_EQ(format_double(0.0001, 4), "0.0001");
  EXPECT_EQ(format_double(-0.0, 2), "0");
  EXPECT_EQ(format_double(2.5, 0), "2");  // rounds bankers-or-away; integral
}

TEST(FormatSci, PaperStyle) {
  EXPECT_EQ(format_sci(6.8e-13, 2), "6.80e-13");
  EXPECT_EQ(format_sci(3.34e-2, 2), "3.34e-02");
}

std::string csv(std::string_view text) {
  std::ostringstream os;
  os << csv_field(text);
  return os.str();
}

TEST(CsvField, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv("plain text"), "plain text");
  EXPECT_EQ(csv(""), "");
  EXPECT_EQ(csv("a,b"), "\"a,b\"");
  EXPECT_EQ(csv("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(csv("cr\r"), "\"cr\r\"");
}

std::vector<std::vector<std::string>> read_all(std::string_view text) {
  CsvReader reader(text);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  while (reader.next(row)) rows.push_back(row);
  return rows;
}

TEST(CsvReader, RoundTripsEveryWrittenField) {
  const std::vector<std::string> fields = {"a,b", "q\"uote", "line\nbreak", "", "crlf\r\n", "x"};
  std::string text;
  for (std::size_t i = 0; i < fields.size(); ++i)
    text += (i == 0 ? "" : ",") + csv(fields[i]);
  text += "\nlast,row\n";
  const auto rows = read_all(text);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], fields);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"last", "row"}));
}

TEST(CsvReader, CrlfBlankRecordsAndEmptyFields) {
  EXPECT_EQ(read_all("a,b\r\n\r\n\n  \nc,\r\n,d"),
            (std::vector<std::vector<std::string>>{{"a", "b"}, {"c", ""}, {"", "d"}}));
  EXPECT_TRUE(read_all("").empty());
  EXPECT_THROW(read_all("a,\"never closed\n"), DataError);
}

}  // namespace
}  // namespace mpa
