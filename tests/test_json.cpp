// Tests for the minimal JSON DOM (src/util/json.hpp): parsing every
// value kind, escape handling, number source-text preservation (so
// 64-bit seeds and timestamps survive exactly), error reporting, and
// json_escape and json_number.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "util/error.hpp"
#include "util/json.hpp"

namespace mpa {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_EQ(parse_json("null").type(), JsonValue::Type::kNull);
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("2.5").as_number(), 2.5);
  EXPECT_DOUBLE_EQ(parse_json("-1e3").as_number(), -1000.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue doc = parse_json(R"({"a":[1,2,{"b":"c"}],"d":{"e":null}})");
  const auto& arr = doc.at("a").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr[0].as_number(), 1.0);
  EXPECT_EQ(arr[2].at("b").as_string(), "c");
  EXPECT_EQ(doc.at("d").at("e").type(), JsonValue::Type::kNull);
}

TEST(Json, PreservesU64Exactly) {
  // 2^64 - 1 is not representable as a double; the DOM keeps the
  // source text so as_u64 parses it losslessly.
  const JsonValue doc = parse_json("{\"u\":18446744073709551615}");
  EXPECT_EQ(doc.at("u").as_u64(), 18446744073709551615ULL);
}

TEST(Json, U64AcceptsOnlyDigitsWithinRange) {
  // Regression: strtoull read "-1" as 2^64 - 1 and clamped 2^64 to it.
  for (const char* bad : {"-1", "-0", "18446744073709551616", "99999999999999999999999", "1.5",
                          "1e3"}) {
    const JsonValue doc = parse_json(std::string("{\"u\":") + bad + "}");
    EXPECT_THROW(doc.at("u").as_u64(), DataError) << bad;
  }
  EXPECT_EQ(parse_json("0").as_u64(), 0u);
}

TEST(Json, RejectsNestingDeeperThanTheBound) {
  const auto nested = [](int depth, const std::string& open, const std::string& close) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += open;
    text += "1";
    for (int i = 0; i < depth; ++i) text += close;
    return text;
  };
  EXPECT_NO_THROW(parse_json(nested(kMaxJsonDepth, "[", "]")));
  EXPECT_NO_THROW(parse_json(nested(kMaxJsonDepth, "{\"a\":", "}")));
  EXPECT_THROW(parse_json(nested(kMaxJsonDepth + 1, "[", "]")), DataError);
  EXPECT_THROW(parse_json(nested(kMaxJsonDepth + 1, "{\"a\":", "}")), DataError);
  // Regression: one recursion per level with no bound overflowed the
  // stack (SIGSEGV) long before the input ran out.
  EXPECT_THROW(parse_json(std::string(200000, '[')), DataError);
  EXPECT_THROW(parse_json(nested(200000, "[", "]")), DataError);
}

TEST(Json, DecodesEscapes) {
  const JsonValue doc = parse_json(R"("line\n\ttab \"q\" back\\slash Aé")");
  EXPECT_EQ(doc.as_string(), "line\n\ttab \"q\" back\\slash A\xc3\xa9");
}

TEST(Json, FindAndAtSemantics) {
  const JsonValue doc = parse_json("{\"present\":1}");
  EXPECT_NE(doc.find("present"), nullptr);
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_THROW(doc.at("absent"), DataError);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), DataError);
  EXPECT_THROW(parse_json("{"), DataError);
  EXPECT_THROW(parse_json("[1,]"), DataError);
  EXPECT_THROW(parse_json("{\"a\" 1}"), DataError);
  EXPECT_THROW(parse_json("\"unterminated"), DataError);
  EXPECT_THROW(parse_json("nul"), DataError);
  EXPECT_THROW(parse_json("1 2"), DataError);  // trailing content
}

TEST(Json, RejectsNumbersOutsideTheFiniteDoubles) {
  // Regression: strtod read 1e999 as infinity and 1e-400 as 0, so a
  // request deadline or a manifest's stage seconds could be infinite.
  for (const std::string bad : {"1e999", "-1e999", "1e-400"}) {
    try {
      parse_json("{\"x\":" + bad + "}");
      ADD_FAILURE() << bad << " parsed";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("number " + bad + " is not a finite double"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Json, ExtremeFiniteNumbersParseBackBitForBit) {
  // json_number writes 12 significant digits, so the bit-for-bit round
  // trip reads full-precision tokens; json_number's own tokens for the
  // same values parse back within those digits.
  constexpr double kMax = std::numeric_limits<double>::max();
  for (const double v : {kMax, -kMax, std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::denorm_min(), -0.0, 0.1}) {
    char full[32];
    std::snprintf(full, sizeof full, "%.17g", v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parse_json(full).as_number()),
              std::bit_cast<std::uint64_t>(v))
        << full;
    const double rounded = parse_json(json_number(v)).as_number();
    EXPECT_EQ(std::signbit(rounded), std::signbit(v)) << json_number(v);
    EXPECT_LE(std::abs(rounded - v), std::abs(v) * 1e-11) << json_number(v);
  }
}

TEST(Json, TypeMismatchThrows) {
  const JsonValue doc = parse_json("{\"n\":1}");
  EXPECT_THROW(doc.at("n").as_string(), DataError);
  EXPECT_THROW(doc.at("n").as_array(), DataError);
  EXPECT_THROW(doc.as_number(), DataError);
}

TEST(Json, EscapeProducesValidTokens) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("n\nr\rt\t"), "n\\nr\\rt\\t");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  // Escaped output parses back to the original.
  EXPECT_EQ(parse_json("\"" + json_escape("a\"b\\c\n\x01") + "\"").as_string(), "a\"b\\c\n\x01");
}

TEST(Json, NumberIsTwelveSignificantDigitsAndAlwaysParses) {
  EXPECT_EQ(json_number(1234.5678), "1234.5678");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(2e-6), "2e-06");
  EXPECT_EQ(json_number(1.0 / 3), "0.333333333333");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_DOUBLE_EQ(parse_json(json_number(-7.25e300)).as_number(), -7.25e300);
}

}  // namespace
}  // namespace mpa
