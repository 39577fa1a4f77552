#include "common/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "json_number_reference.h"

namespace mlake {
namespace {

TEST(JsonTest, ScalarConstruction) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(nullptr).is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(1.5).is_number());
  EXPECT_TRUE(Json(42).is_number());
  EXPECT_TRUE(Json("hi").is_string());
  EXPECT_EQ(Json(true).AsBool(), true);
  EXPECT_DOUBLE_EQ(Json(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Json(int64_t{9000000000}).AsInt64(), 9000000000);
  EXPECT_EQ(Json("hi").AsString(), "hi");
}

TEST(JsonTest, ObjectSetFindPreservesInsertionOrder) {
  Json obj = Json::MakeObject();
  obj.Set("zulu", 1);
  obj.Set("alpha", 2);
  obj.Set("mike", 3);
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj.AsObject()[0].first, "zulu");
  EXPECT_EQ(obj.AsObject()[1].first, "alpha");
  EXPECT_EQ(obj.AsObject()[2].first, "mike");
  // Replacing keeps position.
  obj.Set("alpha", 20);
  EXPECT_EQ(obj.AsObject()[1].first, "alpha");
  EXPECT_EQ(obj.Find("alpha")->AsInt64(), 20);
  EXPECT_EQ(obj.Find("nope"), nullptr);
}

TEST(JsonTest, TypedGettersWithFallbacks) {
  Json obj = Json::MakeObject();
  obj.Set("s", "text");
  obj.Set("n", 3.5);
  obj.Set("b", true);
  EXPECT_EQ(obj.GetString("s"), "text");
  EXPECT_EQ(obj.GetString("missing", "fb"), "fb");
  EXPECT_DOUBLE_EQ(obj.GetDouble("n"), 3.5);
  EXPECT_EQ(obj.GetInt64("n"), 4);  // rounds
  EXPECT_EQ(obj.GetInt64("missing", -7), -7);
  EXPECT_TRUE(obj.GetBool("b"));
  // Wrong type falls back.
  EXPECT_EQ(obj.GetString("n", "fb"), "fb");
  EXPECT_DOUBLE_EQ(obj.GetDouble("s", 9.0), 9.0);
}

TEST(JsonTest, DumpCompact) {
  Json obj = Json::MakeObject();
  obj.Set("a", 1);
  Json arr = Json::MakeArray();
  arr.Append(Json(true)).Append(Json(nullptr)).Append(Json("x"));
  obj.Set("list", std::move(arr));
  EXPECT_EQ(obj.Dump(), R"({"a":1,"list":[true,null,"x"]})");
}

TEST(JsonTest, DumpPretty) {
  Json obj = Json::MakeObject();
  obj.Set("a", 1);
  std::string pretty = obj.Dump(2);
  EXPECT_EQ(pretty, "{\n  \"a\": 1\n}");
}

TEST(JsonTest, ParseRoundTripComplexDocument) {
  const char* text = R"({
    "name": "legal-sum",
    "metrics": [{"benchmark": "b1", "value": 0.875}],
    "tags": ["legal", "english"],
    "nested": {"deep": {"n": -12.5e2}},
    "flag": false,
    "nothing": null
  })";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& j = parsed.ValueUnsafe();
  EXPECT_EQ(j.GetString("name"), "legal-sum");
  EXPECT_DOUBLE_EQ(
      j.Find("nested")->Find("deep")->GetDouble("n"), -1250.0);
  EXPECT_FALSE(j.GetBool("flag", true));
  EXPECT_TRUE(j.Find("nothing")->is_null());
  // Round trip: parse(dump(x)) == x.
  auto reparsed = Json::Parse(j.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed.ValueUnsafe() == j);
  auto reparsed_pretty = Json::Parse(j.Dump(4));
  ASSERT_TRUE(reparsed_pretty.ok());
  EXPECT_TRUE(reparsed_pretty.ValueUnsafe() == j);
}

TEST(JsonTest, StringEscapesRoundTrip) {
  Json obj = Json::MakeObject();
  obj.Set("s", std::string("quote\" slash\\ nl\n tab\t ctrl\x01 end"));
  auto reparsed = Json::Parse(obj.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.ValueUnsafe().GetString("s"),
            "quote\" slash\\ nl\n tab\t ctrl\x01 end");
}

TEST(JsonTest, ParseUnicodeEscapes) {
  auto parsed = Json::Parse(R"({"s": "aé中"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.ValueUnsafe().GetString("s"), "a\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonTest, IntegersSerializeWithoutDecimal) {
  EXPECT_EQ(Json(7).Dump(), "7");
  EXPECT_EQ(Json(-3).Dump(), "-3");
  EXPECT_EQ(Json(int64_t{1234567890123}).Dump(), "1234567890123");
  EXPECT_EQ(Json(0.5).Dump(), "0.5");
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).Dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(), "null");
}

// Named edge values: the dumped bytes are the reference printf bytes,
// and the dumped text parses back to the same bits.
TEST(JsonNumberCodecTest, DumpMatchesPrintfOnEdgeValues) {
  const double two53 = 9007199254740992.0;
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3, -2.0 / 3, 0.5, 1e-5, 123456.4,
      DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN / 3, 4.9e-324,
      two53 - 1, two53, two53 + 2, -(two53 - 1), -two53, -(two53 + 2),
      std::nextafter(two53, 0.0), 1e300, 1.7976931348623157e308,
      static_cast<double>(std::numeric_limits<float>::max()),
      static_cast<double>(0.1f), static_cast<double>(-1.17549435e-38f)};
  for (int e = 15; e <= 23; ++e) {
    double p = std::pow(10.0, e);
    values.insert(values.end(), {p, -p, std::nextafter(p, 0.0), p + 0.5});
  }
  for (double d : values) {
    std::string text = Json(d).Dump();
    EXPECT_EQ(text, json_reference::RefNumberText(d)) << d;
    auto parsed = Json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_TRUE(
        json_reference::SameBits(parsed.ValueUnsafe().AsDouble(), d) ||
        (d == 0.0 && text == "0"))  // -0 dumps as the integer 0
        << text;
  }
}

// The tokens where from_chars and strtod disagree on their own: a
// leading '+', out-of-range magnitudes, and the half-formed shapes
// around them. The parser must decide and value each like strtod.
TEST(JsonNumberCodecTest, ParseMatchesStrtodOnEdgeTokens) {
  const char* tokens[] = {
      "+1", ".5", "1.", "-", "1e", "1e+", "--1", "00", "-0", "1e400",
      "-1e400", "1e-400", "2e-324", "4.9e-324", "+", "+-1", "++1", "-+1",
      "+.5", "-.5", "1e+5", "1E-5", "1e5.5", "1.2.3", ".", "e5", "-e5",
      "1e-", "0e99999999999999999999", "1e99999999999999999999",
      "-1e-99999999999999999999", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "1.7976931348623159e308",
      "1.7976931348623158e308", "-2e-324", "0.0000000000000000000001e-310",
      "100000000000000000000000000000000000000000000e300", "+1e400",
      "+0", "9007199254740993", "1-2", "1+2"};
  for (const char* token : tokens) {
    double want = 0.0;
    bool accepted = json_reference::RefParseNumber(token, &want);
    auto parsed = Json::Parse(token);
    ASSERT_EQ(parsed.ok(), accepted) << token;
    if (accepted) {
      EXPECT_TRUE(
          json_reference::SameBits(parsed.ValueUnsafe().AsDouble(), want))
          << token;
    } else {
      EXPECT_TRUE(parsed.status().IsCorruption()) << token;
    }
  }
}

struct BadInput {
  const char* name;
  const char* text;
};

class JsonParseErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(JsonParseErrorTest, RejectsMalformedInput) {
  auto parsed = Json::Parse(GetParam().text);
  EXPECT_FALSE(parsed.ok()) << GetParam().name;
  EXPECT_TRUE(parsed.status().IsCorruption());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, JsonParseErrorTest,
    ::testing::Values(
        BadInput{"empty", ""},
        BadInput{"bare_word", "frue"},
        BadInput{"trailing", "{} extra"},
        BadInput{"unterminated_string", "\"abc"},
        BadInput{"unterminated_object", "{\"a\": 1"},
        BadInput{"unterminated_array", "[1, 2"},
        BadInput{"missing_colon", "{\"a\" 1}"},
        BadInput{"missing_comma", "[1 2]"},
        BadInput{"bad_escape", "\"\\q\""},
        BadInput{"bad_unicode", "\"\\u12G4\""},
        BadInput{"lone_minus", "-"},
        BadInput{"double_dot", "1.2.3"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      return info.param.name;
    });

TEST(JsonTest, DeepNestingBeyondLimitRejected) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  auto parsed = Json::Parse(deep);
  EXPECT_FALSE(parsed.ok());
}

TEST(JsonTest, DeepNestingWithinLimitAccepted) {
  std::string deep(100, '[');
  deep += "1";
  deep += std::string(100, ']');
  EXPECT_TRUE(Json::Parse(deep).ok());
}

TEST(JsonTest, EqualityIsStructural) {
  auto a = Json::Parse(R"({"x": [1, 2], "y": "s"})").ValueOrDie();
  auto b = Json::Parse(R"({"x": [1, 2], "y": "s"})").ValueOrDie();
  auto c = Json::Parse(R"({"x": [1, 3], "y": "s"})").ValueOrDie();
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(JsonTest, BuilderUpgradesNullToObjectAndArray) {
  Json j;  // null
  j.Set("k", 1);
  EXPECT_TRUE(j.is_object());
  Json a;  // null
  a.Append(Json(2));
  EXPECT_TRUE(a.is_array());
  EXPECT_EQ(a.size(), 1u);
}

TEST(JsonFloatsTest, RoundTripsAndKeepsFloatRangeEdges) {
  const std::vector<float> v = {0.25f, -1.5f, FLT_MAX, -FLT_MAX,
                                FLT_MIN, 0.0f};
  auto back =
      FloatsFromJson(Json::Parse(FloatsToJson(v).Dump()).ValueOrDie(), "v");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueUnsafe(), v);
}

TEST(JsonFloatsTest, RejectsValuesOutsideFloatRange) {
  // 1e39 is a finite double beyond FLT_MAX (narrowing it is undefined
  // behaviour); 1e400 parses to inf.
  for (const char* text :
       {"[1e39]", "[-1e39]", "[1e400]", "[0.5, -1e400]"}) {
    SCOPED_TRACE(text);
    Json arr = Json::Parse(text).ValueOrDie();
    auto wire = FloatsFromJson(arr, "vec");
    EXPECT_TRUE(wire.status().IsInvalidArgument());
    auto stored =
        FloatsFromJson(arr, "embedding doc", StatusCode::kCorruption);
    EXPECT_TRUE(stored.status().IsCorruption());
    EXPECT_NE(stored.status().message().find("embedding doc"),
              std::string::npos);
  }
  EXPECT_FALSE(FloatsFromJson(Json("1.0"), "vec").ok());
  Json mixed = Json::Parse(R"([1, "x"])").ValueOrDie();
  EXPECT_FALSE(FloatsFromJson(mixed, "vec").ok());
}

}  // namespace
}  // namespace mlake
