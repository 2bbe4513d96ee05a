#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "laar/json/json.h"

namespace laar::json {
namespace {

TEST(JsonValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Bool(true).is_bool());
  EXPECT_TRUE(Value::Number(1.5).is_number());
  EXPECT_TRUE(Value::String("x").is_string());
  EXPECT_TRUE(Value::MakeArray().is_array());
  EXPECT_TRUE(Value::MakeObject().is_object());

  EXPECT_EQ(*Value::Bool(true).AsBool(), true);
  EXPECT_DOUBLE_EQ(*Value::Number(2.25).AsDouble(), 2.25);
  EXPECT_EQ(*Value::Int(42).AsInt(), 42);
  EXPECT_EQ(*Value::String("hey").AsString(), "hey");
}

TEST(JsonValueTest, TypeMismatchErrors) {
  EXPECT_FALSE(Value::Number(1).AsBool().ok());
  EXPECT_FALSE(Value::String("1").AsDouble().ok());
  EXPECT_FALSE(Value::Bool(true).AsString().ok());
  EXPECT_FALSE(Value::Number(1.5).AsInt().ok());  // not an exact integer
}

TEST(JsonValueTest, ObjectSetGet) {
  Value obj = Value::MakeObject();
  obj.Set("k", Value::Int(3));
  ASSERT_TRUE(obj.Has("k"));
  EXPECT_EQ(*(*obj.Get("k"))->AsInt(), 3);
  EXPECT_FALSE(obj.Get("missing").ok());
  EXPECT_EQ(obj.GetOr("missing", Value::Int(9)).number_value(), 9.0);
}

TEST(JsonValueTest, ArrayAppend) {
  Value arr = Value::MakeArray();
  arr.Append(Value::Int(1));
  arr.Append(Value::String("two"));
  ASSERT_EQ(arr.array().size(), 2u);
  EXPECT_EQ(arr.array()[1].string_value(), "two");
}

TEST(JsonDumpTest, CompactAndPretty) {
  Value obj = Value::MakeObject();
  obj.Set("b", Value::Bool(false));
  obj.Set("a", Value::Int(1));
  // std::map ordering makes output deterministic and sorted.
  EXPECT_EQ(obj.Dump(), "{\"a\":1,\"b\":false}");
  const std::string pretty = obj.Dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(JsonDumpTest, EscapesSpecialCharacters) {
  EXPECT_EQ(Value::String("a\"b\\c\nd").Dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(JsonDumpTest, NumbersIntegersStayIntegral) {
  EXPECT_EQ(Value::Int(1000000).Dump(), "1000000");
  EXPECT_EQ(Value::Number(0.5).Dump(), "0.5");
  EXPECT_EQ(Value::Number(-3.0).Dump(), "-3");
}

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE((*Parse("null")).is_null());
  EXPECT_EQ((*Parse("true")).bool_value(), true);
  EXPECT_EQ((*Parse("false")).bool_value(), false);
  EXPECT_DOUBLE_EQ((*Parse("-1.5e2")).number_value(), -150.0);
  EXPECT_EQ((*Parse("\"hi\"")).string_value(), "hi");
}

TEST(JsonParseTest, ParsesNested) {
  Result<Value> doc = Parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  ASSERT_TRUE(doc.ok());
  const Value& a = *(*doc->Get("a"));
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.array().size(), 3u);
  EXPECT_EQ(a.array()[2].GetOr("b", Value::Null()).string_value(), "c");
}

TEST(JsonParseTest, WhitespaceTolerant) {
  EXPECT_TRUE(Parse("  {\n\t\"a\" : 1 ,\r\n \"b\": [ ] }  ").ok());
}

TEST(JsonParseTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parse("{} x").ok());
  EXPECT_FALSE(Parse("1 2").ok());
}

TEST(JsonParseTest, RejectsMalformed) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("{").ok());
  EXPECT_FALSE(Parse("[1,]").ok());
  EXPECT_FALSE(Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Parse("{a: 1}").ok());
  EXPECT_FALSE(Parse("\"unterminated").ok());
  EXPECT_FALSE(Parse("tru").ok());
  EXPECT_FALSE(Parse("00x").ok());
}

TEST(JsonParseTest, RejectsNumbersOutOfRange) {
  // strtod makes these ±∞, which Dump could not write back.
  for (const char* text : {"1e999", "[-1e999]", "{\"selectivity\": 1e999}"}) {
    const Result<Value> parsed = Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.status().message().find("e999' is out of range"), std::string::npos)
        << parsed.status().ToString();
  }
  EXPECT_DOUBLE_EQ((*Parse("1e308")).number_value(), 1e308);
  EXPECT_EQ((*Parse("1e-999")).number_value(), 0.0);  // underflow stays finite
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ((*Parse(R"("a\"\\\n\tA")")).string_value(), "a\"\\\n\tA");
  EXPECT_FALSE(Parse(R"("\u00G1")").ok());
  EXPECT_FALSE(Parse(R"("\q")").ok());
}

TEST(JsonParseTest, UnicodeEscapeUtf8) {
  // U+00E9 (é) -> two UTF-8 bytes; U+20AC (€) -> three.
  EXPECT_EQ((*Parse("\"\\u00e9\"")).string_value(), "\xC3\xA9");
  EXPECT_EQ((*Parse("\"\\u20AC\"")).string_value(), "\xE2\x82\xAC");
}

TEST(JsonParseTest, DeepNestingBounded) {
  std::string deep;
  for (int i = 0; i < 500; ++i) deep += "[";
  EXPECT_FALSE(Parse(deep).ok());
}

TEST(JsonRoundTripTest, DumpThenParse) {
  Value obj = Value::MakeObject();
  obj.Set("name", Value::String("app"));
  obj.Set("pi", Value::Number(3.141592653589793));
  Value arr = Value::MakeArray();
  for (int i = 0; i < 5; ++i) arr.Append(Value::Int(i * i));
  obj.Set("squares", std::move(arr));
  Result<Value> round = Parse(obj.Dump(2));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->Dump(), obj.Dump());
}

TEST(JsonFileTest, WriteAndReadBack) {
  const std::string path = testing::TempDir() + "/laar_json_test.json";
  Value obj = Value::MakeObject();
  obj.Set("k", Value::Int(7));
  ASSERT_TRUE(WriteFile(obj, path).ok());
  Result<Value> loaded = ParseFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Dump(), obj.Dump());
  std::remove(path.c_str());
}

TEST(JsonFileTest, MissingFileIsIoError) {
  Result<Value> r = ParseFile("/nonexistent/laar/path.json");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace laar::json
