// Tests for the minimal JSON module: strict parsing, exact round-trips
// (doubles keep their bits), escaping, and error reporting.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

namespace {

using matador::util::Json;

TEST(Json, ParsesScalars) {
    EXPECT_TRUE(Json::parse("null").is_null());
    EXPECT_EQ(Json::parse("true").as_bool(), true);
    EXPECT_EQ(Json::parse("false").as_bool(), false);
    EXPECT_DOUBLE_EQ(Json::parse("42").as_double(), 42.0);
    EXPECT_DOUBLE_EQ(Json::parse("-2.5e3").as_double(), -2500.0);
    EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
    const Json j = Json::parse(
        R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
    EXPECT_EQ(j.at("a").as_array().size(), 3u);
    EXPECT_DOUBLE_EQ(j.at("a").as_array()[1].as_double(), 2.0);
    EXPECT_TRUE(j.at("a").as_array()[2].at("b").as_bool());
    EXPECT_TRUE(j.at("c").at("d").is_null());
    EXPECT_TRUE(j.contains("e"));
    EXPECT_FALSE(j.contains("f"));
}

TEST(Json, ObjectPreservesInsertionOrderAndOverwrites) {
    Json j = Json::object();
    j.set("z", Json(1.0));
    j.set("a", Json(2.0));
    j.set("z", Json(3.0));  // overwrite keeps position
    EXPECT_EQ(j.dump(), R"({"z":3,"a":2})");
}

TEST(Json, DumpParseRoundTripIsExactForDoubles) {
    const double values[] = {0.0,
                             -0.0,
                             1.0 / 3.0,
                             0.1,
                             1e-300,
                             -9.87654321e200,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             65000000.0};
    for (const double v : values) {
        const Json parsed = Json::parse(Json(v).dump());
        const double back = parsed.as_double();
        // Bit-exact, not just approximately equal.
        std::uint64_t a, b;
        std::memcpy(&a, &v, sizeof a);
        std::memcpy(&b, &back, sizeof b);
        EXPECT_EQ(a, b) << v;
    }
}

TEST(Json, IntegralDoublesDumpWithoutExponent) {
    EXPECT_EQ(Json(65000000.0).dump(), "65000000");
    EXPECT_EQ(Json(-3.0).dump(), "-3");
    EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(Json, NonFiniteDoublesDumpAsStrings) {
    EXPECT_EQ(Json(std::nan("")).dump(), "\"nan\"");
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "\"inf\"");
    EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "\"-inf\"");
}

TEST(Json, StringEscapesRoundTrip) {
    const std::string nasty = "line1\nline2\t\"quoted\" back\\slash \x01 end";
    const Json parsed = Json::parse(Json(nasty).dump());
    EXPECT_EQ(parsed.as_string(), nasty);
}

TEST(Json, ParsesUnicodeEscapes) {
    EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
    EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");       // é
    EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(),
              "\xf0\x9f\x98\x80");  // surrogate pair (emoji)
}

TEST(Json, PrettyAndCompactDumpsParseIdentically) {
    Json j = Json::object();
    j.set("list", Json::array());
    j.set("name", Json("x"));
    Json arr = Json::array();
    arr.push_back(Json(1.0));
    arr.push_back(Json(true));
    j.set("list", std::move(arr));
    EXPECT_EQ(Json::parse(j.dump(2)).dump(), j.dump());
}

TEST(Json, RejectsMalformedInput) {
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"bad \\q escape\""), std::runtime_error);
    EXPECT_THROW(Json::parse("nul"), std::runtime_error);
    EXPECT_THROW(Json::parse("1 2"), std::runtime_error);  // trailing garbage
    EXPECT_THROW(Json::parse("{\"a\":1,}"), std::runtime_error);
}

TEST(Json, NumbersDumpAsPrintfWould) {
    // The writer's byte format is "%lld" for integral values below 2^53
    // (except -0) and "%.17g" for everything else.
    const auto printf_dump = [](double v) {
        char buf[40];
        if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15 &&
            !(v == 0.0 && std::signbit(v)))
            std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
        else
            std::snprintf(buf, sizeof buf, "%.17g", v);
        return std::string(buf);
    };
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 20000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        double v = 0.0;
        if (i % 3 == 0) {
            std::memcpy(&v, &state, sizeof v);  // any bit pattern
        } else {
            // Short decimals and integers, as requests and replies carry.
            v = double(std::int64_t(state >> 20) % 2000001 - 1000000) /
                (i % 3 == 1 ? 1.0 : 1000.0);
        }
        if (!std::isfinite(v)) continue;
        EXPECT_EQ(Json(v).dump(), printf_dump(v)) << i;
    }
    for (const double v : {0.0, -0.0, 5e-324, 1e300, -9.007199254740992e15,
                           9.007199254740991e15, 0.1, 1234.5678})
        EXPECT_EQ(Json(v).dump(), printf_dump(v)) << v;
}

TEST(Json, OutOfRangeNumbersParseAsStrtodDoes) {
    EXPECT_EQ(Json::parse("1e400").as_double(),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(Json::parse("-1e400").as_double(),
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(Json::parse("1e-400").as_double(), 0.0);
    EXPECT_EQ(Json::parse("4.9e-324").as_double(),
              std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(Json::parse("1.").as_double(), 1.0);
    EXPECT_THROW(Json::parse("-"), std::runtime_error);
    EXPECT_THROW(Json::parse("1e"), std::runtime_error);
    EXPECT_THROW(Json::parse("1e400e"), std::runtime_error);
}

TEST(Json, RejectsNestingDeeperThanTheLimit) {
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW(Json::parse(nested(512)));
    EXPECT_THROW(Json::parse(nested(513)), std::runtime_error);
    // A line of a million brackets is an error, not a stack overflow.
    EXPECT_THROW(Json::parse(std::string(1000000, '[')), std::runtime_error);
    std::string objects;
    for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
    EXPECT_THROW(Json::parse(objects), std::runtime_error);
}

TEST(Json, CountsAreWholeNumbersInRange) {
    EXPECT_EQ(Json(0.0).as_count(), 0u);
    EXPECT_EQ(Json(42.0).as_count(), 42u);
    EXPECT_EQ(Json(9007199254740992.0).as_count(), std::size_t(1) << 53);
    for (const char* bad : {"-1", "2.5", "1e300", "\"3\""})
        EXPECT_THROW(Json::parse(bad).as_count(), std::runtime_error) << bad;
    EXPECT_THROW(Json(9007199254740994.0).as_count(), std::runtime_error);
    EXPECT_EQ(Json(4294967295.0).as_count(4294967295u), 4294967295u);
    EXPECT_THROW(Json(4294967296.0).as_count(4294967295u), std::runtime_error);
}

TEST(Json, TypeMismatchesAndMissingKeysThrowWithContext) {
    const Json j = Json::parse(R"({"a": 1})");
    EXPECT_THROW(j.at("a").as_string(), std::runtime_error);
    try {
        (void)j.at("nope");
        FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
    }
}

}  // namespace
