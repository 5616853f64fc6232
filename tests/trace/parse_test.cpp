// Tests for the strict numeric parsers behind every command-line flag,
// --param override and plan field: the whole string must be a number.
#include "trace/parse.hpp"

#include <gtest/gtest.h>

namespace sss::trace {
namespace {

TEST(ParseDouble, AcceptsPlainAndScientific) {
  EXPECT_DOUBLE_EQ(*parse_double("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_double("1"), 1.0);
  EXPECT_DOUBLE_EQ(*parse_double("1e-1"), 0.1);
  EXPECT_DOUBLE_EQ(*parse_double("-2.25"), -2.25);
}

TEST(ParseDouble, RejectsGarbageTheOldAtofAccepted) {
  // std::atof("0.5abc") returned 0.5; the strict parser must refuse.
  EXPECT_FALSE(parse_double("0.5abc").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double(" 0.5").has_value());
  EXPECT_FALSE(parse_double("0.5 ").has_value());
  EXPECT_FALSE(parse_double("0,5").has_value());  // locale decimal comma
}

TEST(ParseInt, FullStringValidation) {
  EXPECT_EQ(*parse_int("8"), 8);
  EXPECT_EQ(*parse_int("-3"), -3);
  EXPECT_FALSE(parse_int("8x").has_value());
  EXPECT_FALSE(parse_int("3.5").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(ParseUint64, FullStringValidation) {
  EXPECT_EQ(*parse_uint64("42"), 42u);
  EXPECT_EQ(*parse_uint64("18446744073709551615"), 18446744073709551615ull);
  EXPECT_FALSE(parse_uint64("-1").has_value());
  EXPECT_FALSE(parse_uint64("42!").has_value());
}

}  // namespace
}  // namespace sss::trace
