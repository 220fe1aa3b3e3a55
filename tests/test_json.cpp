#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "util/json.h"

namespace mlck::util {
namespace {

TEST(Json, DefaultIsNull) {
  const Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.type(), Json::Type::kNull);
}

TEST(Json, ScalarConstructionAndAccess) {
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_DOUBLE_EQ(Json(2.5).as_number(), 2.5);
  EXPECT_DOUBLE_EQ(Json(7).as_number(), 7.0);
  EXPECT_EQ(Json("hi").as_string(), "hi");
  EXPECT_EQ(Json(std::string("ho")).as_string(), "ho");
}

TEST(Json, TypedAccessorsThrowWithTypeNames) {
  try {
    Json(1.0).as_string();
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("expected string"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("number"), std::string::npos);
  }
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.75e2").as_number(), -375.0);
  EXPECT_EQ(Json::parse("\"text\"").as_string(), "text");
}

TEST(Json, ParseNestedDocument) {
  const Json doc = Json::parse(R"({
    "name": "demo",
    "mtbf": 120.5,
    "levels": [1, 2, 3],
    "nested": {"flag": true, "items": []}
  })");
  EXPECT_EQ(doc.at("name").as_string(), "demo");
  EXPECT_DOUBLE_EQ(doc.at("mtbf").as_number(), 120.5);
  EXPECT_EQ(doc.at("levels").size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("levels").at(1).as_number(), 2.0);
  EXPECT_TRUE(doc.at("nested").at("flag").as_bool());
  EXPECT_EQ(doc.at("nested").at("items").size(), 0u);
}

TEST(Json, ParseStringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  // é = e-acute, two UTF-8 bytes; A = 'A'.
  EXPECT_EQ(Json::parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(Json, ParseErrorsCarryPosition) {
  try {
    Json::parse("{\n  \"a\": 1,\n  \"b\": }\n");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    // The bad token is on line 3.
    EXPECT_NE(std::string(e.what()).find("3:"), std::string::npos);
  }
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("[1] extra"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("truly"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("01a"), JsonError);
}

TEST(Json, ParseRejectsExcessiveNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(Json::parse(deep), JsonError);
}

TEST(Json, RoundTripThroughDump) {
  const Json doc = Json::parse(
      R"({"a": [1, 2.5, "x"], "b": {"c": null, "d": false}, "e": -0.125})");
  EXPECT_EQ(Json::parse(doc.dump()), doc);
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

TEST(Json, DumpIsDeterministicAndSorted) {
  Json::Object obj;
  obj["zebra"] = Json(1);
  obj["alpha"] = Json(2);
  const std::string text = Json(obj).dump();
  EXPECT_LT(text.find("alpha"), text.find("zebra"));
  EXPECT_EQ(text, Json(obj).dump());
}

TEST(Json, DumpCompactAndPretty) {
  const Json doc = Json::parse(R"({"a": [1, 2]})");
  EXPECT_EQ(doc.dump(), R"({"a":[1,2]})");
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": [\n"), std::string::npos);
}

TEST(Json, DumpNumbers) {
  EXPECT_EQ(Json(200.0).dump(), "200");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  // Full precision survives a round trip.
  const double value = 1.9221704227164327;
  EXPECT_DOUBLE_EQ(Json::parse(Json(value).dump()).as_number(), value);
}

TEST(Json, DumpNumbersMatchPrintf17g) {
  // format_g17 (std::to_chars) must print every double exactly as
  // snprintf's 17-digit %g did before it: the plan cache, the goldens and
  // the expositions all hold those bytes.
  const auto printf_g17 = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, limits::infinity(), -limits::infinity(),
      limits::quiet_NaN(), -limits::quiet_NaN(), limits::denorm_min(),
      -limits::denorm_min(), limits::min(), limits::max(), limits::lowest(),
      1e15, -1e15, 1e15 + 0.5, 1e16, 1e17, 0.1, 1.0 / 3.0, 1e-4, 1e-5,
      9.9999999999999995e-5, 12345678901234567.0, 0.5, 1.9221704227164327};
  std::mt19937_64 bits(20180521);
  for (int i = 0; i < 1'000'000; ++i) {
    values.push_back(std::bit_cast<double>(bits()));
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string want = printf_g17(v);
    if (format_g17(v) != want && ++mismatches <= 5) {
      ADD_FAILURE() << want << " printed as " << format_g17(v);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";

  // dump() prints integral values below 1e15 as integers and everything
  // else through the same formatter.
  EXPECT_EQ(Json(-0.0).dump(), "0");
  EXPECT_EQ(Json(999999999999999.0).dump(), "999999999999999");
  EXPECT_EQ(Json(1e15).dump(), printf_g17(1e15));
  EXPECT_EQ(Json(1e300).dump(), printf_g17(1e300));
  EXPECT_EQ(Json(limits::infinity()).dump(), "inf");
  EXPECT_EQ(Json(-limits::quiet_NaN()).dump(), "-nan");
}

TEST(Json, DumpEscapesStrings) {
  EXPECT_EQ(Json("a\"b\n").dump(), R"("a\"b\n")");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, FindAndAtOnObjects) {
  const Json doc = Json::parse(R"({"x": 5})");
  EXPECT_NE(doc.find("x"), nullptr);
  EXPECT_EQ(doc.find("y"), nullptr);
  try {
    doc.at("y");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("\"y\""), std::string::npos);
  }
}

TEST(Json, ArrayBoundsChecked) {
  const Json doc = Json::parse("[1, 2]");
  EXPECT_DOUBLE_EQ(doc.at(std::size_t{1}).as_number(), 2.0);
  EXPECT_THROW(doc.at(std::size_t{2}), JsonError);
}

TEST(Json, MakeContainersMutate) {
  Json j;
  j.make_object()["k"] = Json(1);
  EXPECT_DOUBLE_EQ(j.at("k").as_number(), 1.0);
  Json a;
  a.make_array().push_back(Json("v"));
  EXPECT_EQ(a.at(std::size_t{0}).as_string(), "v");
  EXPECT_THROW(a.make_object(), JsonError);
}

}  // namespace
}  // namespace mlck::util
