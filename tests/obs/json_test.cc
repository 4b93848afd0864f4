// json_escape output and the strict parser: escaping must cover every
// control byte, and the parser must reject everything RFC 8259 rejects —
// it is the gate `bench_export --check` and the trace tests rely on.
#include "src/obs/json.h"

#include <gtest/gtest.h>

#include <string>

#include "src/common/status.h"

namespace mcrdl::obs {
namespace {

TEST(JsonEscape, QuotesAndBackslashes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, NamedControlEscapes) {
  EXPECT_EQ(json_escape("\n"), "\\n");
  EXPECT_EQ(json_escape("\t"), "\\t");
  EXPECT_EQ(json_escape("\r"), "\\r");
  EXPECT_EQ(json_escape("\b"), "\\b");
  EXPECT_EQ(json_escape("\f"), "\\f");
}

TEST(JsonEscape, RemainingControlBytesBecomeUnicodeEscapes) {
  // Bytes below 0x20 without a named escape get \u00XX. The old trace
  // escaper passed these through raw — the regression this layer fixes.
  EXPECT_EQ(json_escape(std::string(1, static_cast<char>(0x01))), "\\u0001");
  EXPECT_EQ(json_escape(std::string(1, static_cast<char>(0x1f))), "\\u001f");
  EXPECT_EQ(json_escape(std::string(1, static_cast<char>(0x00))), "\\u0000");
  // 0x20 and above are untouched.
  EXPECT_EQ(json_escape(" ~"), " ~");
}

TEST(JsonEscape, EveryEscapedStringParsesBackToTheOriginal) {
  std::string nasty;
  for (int c = 0; c < 0x30; ++c) nasty.push_back(static_cast<char>(c));
  nasty += "\"\\plain";
  const JsonValue v = parse_json(std::string("\"").append(json_escape(nasty)).append("\""));
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.str, nasty);
}

TEST(JsonParse, Primitives) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").boolean);
  EXPECT_FALSE(parse_json("false").boolean);
  EXPECT_DOUBLE_EQ(parse_json("42").number, 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-3.5e2").number, -350.0);
  EXPECT_DOUBLE_EQ(parse_json("0.25").number, 0.25);
  EXPECT_EQ(parse_json("\"hi\"").str, "hi");
}

TEST(JsonParse, NestedContainers) {
  const JsonValue v = parse_json(R"({"a":[1,2,{"b":true}],"c":{"d":null}})");
  ASSERT_TRUE(v.is_object());
  const JsonValue& a = v.at("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.array.size(), 3u);
  EXPECT_DOUBLE_EQ(a.array[1].number, 2.0);
  EXPECT_TRUE(a.array[2].at("b").boolean);
  EXPECT_TRUE(v.at("c").at("d").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), InvalidArgument);
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(parse_json(R"("\u0041")").str, "A");
  // \u escapes decode to UTF-8: 2-byte (U+00E9) and 3-byte (U+20AC).
  EXPECT_EQ(parse_json(R"("\u00e9")").str, "\xc3\xa9");
  EXPECT_EQ(parse_json(R"("\u20AC")").str, "\xe2\x82\xac");
  // Surrogate pair -> 4-byte UTF-8 (U+1F600), and raw UTF-8 passes through.
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").str, "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse_json("\"\xc3\xa9\"").str, "\xc3\xa9");
}

TEST(JsonParse, RejectsTrailingGarbage) {
  EXPECT_THROW(parse_json("{} x"), InvalidArgument);
  EXPECT_THROW(parse_json("1 2"), InvalidArgument);
  EXPECT_THROW(parse_json("[1],"), InvalidArgument);
  // Leading/trailing whitespace alone is fine.
  EXPECT_NO_THROW(parse_json("  [1, 2]\n"));
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_json(""), InvalidArgument);
  EXPECT_THROW(parse_json("{"), InvalidArgument);
  EXPECT_THROW(parse_json("[1,]"), InvalidArgument);
  EXPECT_THROW(parse_json("{\"a\":}"), InvalidArgument);
  EXPECT_THROW(parse_json("{\"a\" 1}"), InvalidArgument);
  EXPECT_THROW(parse_json("{'a':1}"), InvalidArgument);
  EXPECT_THROW(parse_json("nul"), InvalidArgument);
}

TEST(JsonParse, RejectsDuplicateKeys) {
  EXPECT_THROW(parse_json(R"({"a":1,"a":2})"), InvalidArgument);
}

TEST(JsonParse, RejectsMalformedNumbers) {
  EXPECT_THROW(parse_json("01"), InvalidArgument);
  EXPECT_THROW(parse_json("+1"), InvalidArgument);
  EXPECT_THROW(parse_json("1."), InvalidArgument);
  EXPECT_THROW(parse_json(".5"), InvalidArgument);
  EXPECT_THROW(parse_json("1e"), InvalidArgument);
  EXPECT_THROW(parse_json("--1"), InvalidArgument);
}

TEST(JsonParse, RejectsBadStrings) {
  // Raw control byte inside a string literal.
  std::string raw = "\"a";
  raw.push_back(static_cast<char>(0x01));
  raw += "b\"";
  EXPECT_THROW(parse_json(raw), InvalidArgument);
  EXPECT_THROW(parse_json(R"("\q")"), InvalidArgument);       // unknown escape
  EXPECT_THROW(parse_json(R"("\u12")"), InvalidArgument);     // short \u
  EXPECT_THROW(parse_json(R"("\ud83d")"), InvalidArgument);   // lone high surrogate
  EXPECT_THROW(parse_json(R"("\ude00")"), InvalidArgument);   // lone low surrogate
  EXPECT_THROW(parse_json("\"open"), InvalidArgument);        // unterminated
}

TEST(JsonParse, ErrorsCarryTheByteOffset) {
  try {
    parse_json(R"({"a":1,})");
    FAIL() << "accepted a trailing comma";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace mcrdl::obs
