#include "mcsim/util/json.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mcsim::json {
namespace {

TEST(JsonValue, DefaultIsNull) {
  JsonValue v;
  EXPECT_TRUE(v.isNull());
  EXPECT_FALSE(v.isObject());
}

TEST(JsonValue, ConvenienceConstructors) {
  EXPECT_TRUE(JsonValue(nullptr).isNull());
  EXPECT_TRUE(JsonValue(true).isBool());
  EXPECT_TRUE(JsonValue(3.5).isNumber());
  EXPECT_TRUE(JsonValue(7).isNumber());
  EXPECT_TRUE(JsonValue(std::uint64_t{1} << 40).isNumber());
  EXPECT_TRUE(JsonValue("text").isString());
  EXPECT_TRUE(JsonValue(std::string("text")).isString());
  EXPECT_TRUE(JsonValue(JsonArray{}).isArray());
  EXPECT_TRUE(JsonValue(JsonObject{}).isObject());
}

TEST(JsonParse, RoundTripsEveryAlternative) {
  const std::string text =
      R"({"arr":[1,2.5,-3],"bool":true,"nested":{"deep":null},)"
      R"("num":42,"str":"hi \"quoted\" \\ line\n"})";
  const JsonValue v = parseJson(text);
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.at("num").asNumber(), 42.0);
  EXPECT_TRUE(v.at("bool").asBool());
  EXPECT_TRUE(v.at("nested").at("deep").isNull());
  ASSERT_EQ(v.at("arr").asArray().size(), 3u);
  EXPECT_EQ(v.at("arr").asArray()[1].asNumber(), 2.5);
  EXPECT_EQ(v.at("str").asString(), "hi \"quoted\" \\ line\n");
  // Deterministic writer: std::map key order, jsonl-compatible escaping.
  EXPECT_EQ(dumpJson(v), text);
}

TEST(JsonParse, NullLiteralParsesToNullValue) {
  const JsonValue v = parseJson(R"({"task":null})");
  EXPECT_TRUE(v.at("task").isNull());
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(parseJson(""), std::runtime_error);
  EXPECT_THROW(parseJson("{"), std::runtime_error);
  EXPECT_THROW(parseJson("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(parseJson("[1,2,]"), std::runtime_error);
  EXPECT_THROW(parseJson("nul"), std::runtime_error);
  EXPECT_THROW(parseJson("{} trailing"), std::runtime_error);
  // Number and \u errors are typed like every other refusal, and a \u
  // escape needs all four hex digits.
  EXPECT_THROW(parseJson("[1e999]"), std::runtime_error);
  EXPECT_THROW(parseJson("[-]"), std::runtime_error);
  EXPECT_THROW(parseJson(R"(["\uzzzz"])"), std::runtime_error);
  EXPECT_THROW(parseJson(R"(["\u00zz"])"), std::runtime_error);
  // Unbounded nesting would overflow the stack; the parser refuses it.
  EXPECT_THROW(parseJson(std::string(50000, '[')), std::runtime_error);
}

TEST(JsonParse, ErrorsNameWhatAndWhere) {
  auto message = [](const std::string& text) {
    try {
      parseJson(text);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message("[1, 1e999]"), "json: number out of range at offset 4");
  EXPECT_EQ(message("[-]"), "json: bad number at offset 1");
  EXPECT_EQ(message(R"(["\u00zz"])"), "json: bad \\u escape at offset 4");
  EXPECT_EQ(message(std::string(50000, '[')),
            "json: nesting deeper than 256 at offset 256");
}

TEST(JsonParse, NestingUpToTheCapIsAccepted) {
  const int depth = JsonParser::kMaxDepth;
  const std::string text =
      std::string(static_cast<std::size_t>(depth), '[') +
      std::string(static_cast<std::size_t>(depth), ']');
  const JsonValue v = parseJson(text);
  const JsonValue* cursor = &v;
  int seen = 1;
  while (!cursor->asArray().empty()) {
    cursor = &cursor->asArray()[0];
    ++seen;
  }
  EXPECT_EQ(seen, depth);
  EXPECT_THROW(parseJson("[" + text + "]"), std::runtime_error);
  // Objects count toward the same cap.
  std::string objects;
  for (int i = 0; i <= depth; ++i) objects += R"({"a":)";
  objects += "1" + std::string(static_cast<std::size_t>(depth) + 1, '}');
  EXPECT_THROW(parseJson(objects), std::runtime_error);
}

TEST(JsonParse, NumbersKeepTheirValues) {
  const JsonValue v = parseJson("[0, -0.5, 1e-3, 2.5E+2, 12345678901234567]");
  const JsonArray& a = v.asArray();
  EXPECT_EQ(a[0].asNumber(), 0.0);
  EXPECT_EQ(a[1].asNumber(), -0.5);
  EXPECT_EQ(a[2].asNumber(), 1e-3);
  EXPECT_EQ(a[3].asNumber(), 250.0);
  EXPECT_EQ(a[4].asNumber(), 12345678901234567.0);
}

TEST(JsonValue, AccessorsEnforceTypes) {
  const JsonValue v = parseJson(R"({"n":1})");
  EXPECT_THROW(v.at("missing"), std::runtime_error);
  EXPECT_THROW(v.at("n").asString(), std::bad_variant_access);
  EXPECT_FALSE(v.has("missing"));
  EXPECT_TRUE(v.has("n"));
}

TEST(JsonWrite, NumbersUseJsonlPrecision) {
  // Matches obs/jsonl.cpp's %.12g contract so server results diff cleanly
  // against telemetry artifacts.
  JsonObject o;
  o["v"] = 10302.7681234;  // 12 significant digits survive exactly
  EXPECT_EQ(dumpJson(JsonValue(o)), R"({"v":10302.7681234})");
  o["v"] = 1e21;
  EXPECT_EQ(dumpJson(JsonValue(o)), R"({"v":1e+21})");
}

TEST(JsonParse, UnicodeEscapes) {
  const JsonValue v = parseJson(R"(["Aé"])");
  EXPECT_EQ(v.asArray()[0].asString(), "A\xc3\xa9");
}

TEST(JsonParse, FourDigitEscapesDecode) {
  const JsonValue v = parseJson(R"(["\u0041\u007a\u0009"])");
  EXPECT_EQ(v.asArray()[0].asString(), "Az\t");
}

}  // namespace
}  // namespace mcsim::json
