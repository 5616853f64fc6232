// Tests for the minimal JSON writer.
#include "trace/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace sss::trace {
namespace {

TEST(JsonValue, Scalars) {
  EXPECT_EQ(JsonValue(nullptr).dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(0.5).dump(), "0.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(JsonValue, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(JsonValue, StringEscaping) {
  EXPECT_EQ(JsonValue::escape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonValue::escape("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonValue::escape("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(JsonValue::escape(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonValue, ObjectConstruction) {
  JsonValue obj = JsonValue::object();
  obj["t_worst"] = 1.2;
  obj["regime"] = "moderate";
  obj["feasible"] = true;
  EXPECT_EQ(obj.dump(), "{\"feasible\":true,\"regime\":\"moderate\",\"t_worst\":1.2}");
}

TEST(JsonValue, ArrayConstruction) {
  JsonValue arr = JsonValue::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(JsonValue::object());
  EXPECT_EQ(arr.dump(), "[1,\"two\",{}]");
}

TEST(JsonValue, NestedWithIndent) {
  JsonValue obj = JsonValue::object();
  obj["xs"] = JsonValue::array();
  obj["xs"].push_back(1);
  const std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find("\n  \"xs\": [\n    1\n  ]"), std::string::npos);
}

TEST(JsonValue, TypeErrors) {
  JsonValue scalar(1.0);
  EXPECT_THROW(scalar["x"], std::logic_error);
  EXPECT_THROW(scalar.push_back(1), std::logic_error);
  JsonValue obj = JsonValue::object();
  EXPECT_THROW(obj.push_back(1), std::logic_error);
}

TEST(JsonValue, ObjectOverwriteField) {
  JsonValue obj = JsonValue::object();
  obj["k"] = 1;
  obj["k"] = 2;
  EXPECT_EQ(obj.dump(), "{\"k\":2}");
}

TEST(JsonParse, ScalarsAndContainers) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("-2.5e3").as_double(), -2500.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");

  const JsonValue doc = JsonValue::parse(
      "  {\"a\": [1, 2, {\"deep\": true}], \"b\": \"x\\n\\\"y\\\"\", \"c\": null} ");
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("a").as_array()[1].as_double(), 2.0);
  EXPECT_TRUE(doc.at("a").as_array()[2].at("deep").as_bool());
  EXPECT_EQ(doc.at("b").as_string(), "x\n\"y\"");
  EXPECT_TRUE(doc.at("c").is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), std::runtime_error);
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(JsonValue::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\" 1}", "{\"a\":1,}", "tru", "1x",
                          "\"unterminated", "[1] trailing", "{\"a\":}", "nan"}) {
    EXPECT_THROW(JsonValue::parse(bad), std::runtime_error) << bad;
  }
}

// The property the plan-file workflow depends on: dump → parse → dump is
// the identity, including doubles with no short decimal representation.
TEST(JsonParse, DumpParseRoundTripIsExact) {
  JsonValue obj = JsonValue::object();
  obj["tenth"] = 0.1;
  obj["third"] = 1.0 / 3.0;
  obj["big"] = 1.797e308;
  obj["tiny"] = 5e-324;
  obj["neg"] = -123456.789012345;
  obj["text"] = "line\nbreak";
  const std::string text = obj.dump();
  const JsonValue back = JsonValue::parse(text);
  EXPECT_EQ(back.dump(), text);
  EXPECT_EQ(back.at("third").as_double(), 1.0 / 3.0);
  EXPECT_EQ(back.at("tiny").as_double(), 5e-324);
}

// Seeds: written as decimal strings, read from a string or from an
// integral number up to 2^53 (older files), and nothing else.
TEST(JsonValue, Uint64IsExactPast2To53) {
  const std::uint64_t seed = (1ULL << 60) + 3;
  const JsonValue written = JsonValue::from_uint64(seed);
  EXPECT_EQ(written.dump(), "\"1152921504606846979\"");
  EXPECT_EQ(JsonValue::parse(written.dump()).as_uint64(), seed);
  EXPECT_EQ(JsonValue::parse("42").as_uint64(), 42u);
  EXPECT_EQ(JsonValue::parse("9007199254740992").as_uint64(), 1ULL << 53);
  for (const char* bad : {"9007199254740994", "-1", "2.5", "\"-1\"", "\"4x\"", "\"\"",
                          "\"18446744073709551616\"", "null", "true"}) {
    EXPECT_THROW((void)JsonValue::parse(bad).as_uint64(), std::runtime_error) << bad;
  }
}

}  // namespace
}  // namespace sss::trace
