// Minimal JSON layer used by the campaign service wire protocol: parse /
// dump round-trips, escaping, typed accessors, and malformed-input errors
// (the daemon turns these into error replies, so they must throw reliably).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/util/json.h"

namespace dx {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null").is_null());
  EXPECT_TRUE(Json::Parse("true").AsBool());
  EXPECT_FALSE(Json::Parse("false").AsBool());
  EXPECT_DOUBLE_EQ(Json::Parse("3.5").AsNumber(), 3.5);
  EXPECT_EQ(Json::Parse("-17").AsInt(), -17);
  EXPECT_EQ(Json::Parse("\"hi\"").AsString(), "hi");
  EXPECT_DOUBLE_EQ(Json::Parse("1e3").AsNumber(), 1000.0);
}

TEST(JsonTest, ParsesNestedStructure) {
  const Json doc = Json::Parse(
      R"({"cmd":"submit","spec":{"seeds":12,"resume":false},"tags":["a","b"]})");
  EXPECT_EQ(doc.At("cmd").AsString(), "submit");
  EXPECT_EQ(doc.At("spec").At("seeds").AsInt(), 12);
  EXPECT_FALSE(doc.At("spec").At("resume").AsBool());
  ASSERT_EQ(doc.At("tags").AsArray().size(), 2u);
  EXPECT_EQ(doc.At("tags").AsArray()[1].AsString(), "b");
}

TEST(JsonTest, DumpParseRoundTrip) {
  Json doc = Json::Object();
  doc["id"] = Json(int64_t{42});
  doc["coverage"] = Json(0.12345678901234567);
  doc["name"] = Json("a \"quoted\" name\nwith newline");
  Json arr = Json::Array();
  arr.Append(Json(1));
  arr.Append(Json(true));
  arr.Append(Json(nullptr));
  doc["items"] = std::move(arr);

  const Json back = Json::Parse(doc.Dump());
  EXPECT_EQ(back.At("id").AsInt(), 42);
  EXPECT_DOUBLE_EQ(back.At("coverage").AsNumber(), 0.12345678901234567);
  EXPECT_EQ(back.At("name").AsString(), "a \"quoted\" name\nwith newline");
  EXPECT_EQ(back.At("items").AsArray().size(), 3u);
  EXPECT_TRUE(back.At("items").AsArray()[2].is_null());
}

TEST(JsonTest, DumpIsDeterministicAndCompact) {
  Json doc = Json::Object();
  doc["b"] = Json(2);
  doc["a"] = Json(1);
  // Keys are sorted and integers print without a decimal point.
  EXPECT_EQ(doc.Dump(), R"({"a":1,"b":2})");
}

TEST(JsonTest, UnicodeEscapes) {
  EXPECT_EQ(Json::Parse(R"("Aé")").AsString(), "A\xc3\xa9");
  EXPECT_EQ(Json::Parse(R"("tab\there")").AsString(), "tab\there");
}

TEST(JsonTest, MalformedInputThrows) {
  EXPECT_THROW(Json::Parse(""), std::runtime_error);
  EXPECT_THROW(Json::Parse("{"), std::runtime_error);
  EXPECT_THROW(Json::Parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(Json::Parse("[1,2"), std::runtime_error);
  EXPECT_THROW(Json::Parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::Parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::Parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(Json::Parse("not json at all"), std::runtime_error);
}

TEST(JsonTest, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  // One ctl line of '[' must be a parse error, not a crash.
  const std::string deep(100000, '[');
  try {
    Json::Parse(deep);
    FAIL() << "deeply nested input parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("json: nesting deeper than"), std::string::npos)
        << e.what();
  }
  std::string objects;
  for (int i = 0; i < 100000; ++i) {
    objects += "{\"a\":";
  }
  EXPECT_THROW(Json::Parse(objects), std::runtime_error);
  // Moderate nesting still parses.
  const Json nested = Json::Parse(std::string(64, '[') + std::string(64, ']'));
  EXPECT_EQ(nested.AsArray().size(), 1u);
}

TEST(JsonTest, TypeMismatchThrows) {
  const Json doc = Json::Parse(R"({"n":5})");
  EXPECT_THROW(doc.At("n").AsString(), std::runtime_error);
  EXPECT_THROW(doc.At("missing"), std::runtime_error);
  EXPECT_THROW(Json::Parse("[1]").AsObject(), std::runtime_error);
}

TEST(JsonTest, AsIntRejectsNumbersOutsideInt64) {
  // Casting any of these to int64 would be undefined behaviour.
  EXPECT_THROW(Json::Parse("1e300").AsInt(), std::runtime_error);
  EXPECT_THROW(Json::Parse("1e400").AsInt(), std::runtime_error);  // Parses to inf.
  EXPECT_THROW(Json::Parse("9223372036854775808").AsInt(), std::runtime_error);  // 2^63.
  EXPECT_THROW(Json::Parse("1.5").AsInt(), std::runtime_error);
  EXPECT_EQ(Json::Parse("-9223372036854775808").AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Json::Parse("9007199254740992").AsInt(), int64_t{1} << 53);
}

TEST(JsonTest, OptionalLookupsFallBack) {
  const Json doc = Json::Parse(R"({"present":7,"flag":true})");
  EXPECT_EQ(doc.GetInt("present", 0), 7);
  EXPECT_EQ(doc.GetInt("absent", 123), 123);
  EXPECT_TRUE(doc.GetBool("flag", false));
  EXPECT_EQ(doc.GetString("absent", "dflt"), "dflt");
}

}  // namespace
}  // namespace dx
