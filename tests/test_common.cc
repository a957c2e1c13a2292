/**
 * @file
 * Tests for the shared utilities: deterministic RNG behaviour and
 * the JSON writer/reader.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/json.hh"
#include "common/rng.hh"
#include "json_checker.hh"

namespace mouse
{
namespace
{

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        same += a.next() == b.next();
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
    }
}

TEST(Rng, BetweenIsInclusive)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.between(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyStandard)
{
    Rng rng(13);
    double sum = 0.0;
    double sq = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}


// -- JSON --------------------------------------------------------------

TEST(Json, NumbersRoundTripAndNonFiniteStaysValid)
{
    for (double v : {0.0, -0.0, 0.1, 1.0 / 3.0, 6e-5, 1e300, 5e-324,
                     -2.5e-308}) {
        const auto back = json::parse(json::num(v));
        ASSERT_TRUE(back.has_value()) << json::num(v);
        EXPECT_EQ(std::signbit(back->number), std::signbit(v));
        EXPECT_EQ(back->number, v);
    }
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(json::num(inf), "1e308");
    EXPECT_EQ(json::num(-inf), "-1e308");
    EXPECT_EQ(json::num(std::nan("")), "0");
    EXPECT_EQ(json::num(std::uint64_t{18446744073709551615ull}),
              "18446744073709551615");
    EXPECT_EQ(json::num(0.1), "0.10000000000000001");
}

TEST(Json, EscapeRoundTripsThroughTheReader)
{
    const std::string raw = std::string("q\"b\\n\nt\tc\x01\x1f") +
                            '\0' + "\xc3\xa9";
    EXPECT_EQ(json::escape("a\"b\\c\nd\te\x01"),
              "a\\\"b\\\\c\\nd\\te\\u0001");
    const auto back = json::parse("\"" + json::escape(raw) + "\"");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->text, raw);
}

TEST(Json, ReadsEveryTypeWithPositions)
{
    json::Error err;
    const auto v = json::parse(
        "{\"a\": [1, -2.5e3, true, false, null],\n"
        "  \"s\": \"\\u00e9\\u20ac\\ud83d\\ude00\\/\\b\\f\\r\",\n"
        "  \"o\": {}}",
        &err);
    ASSERT_TRUE(v.has_value()) << err.message;
    ASSERT_TRUE(v->is(json::Value::Type::kObject));
    const json::Value *a = v->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items.size(), 5u);
    EXPECT_EQ(a->items[1].number, -2500.0);
    EXPECT_FALSE(a->items[1].integral);
    EXPECT_TRUE(a->items[0].integral);
    EXPECT_EQ(a->items[0].magnitude, 1u);
    EXPECT_TRUE(a->items[2].boolean);
    EXPECT_TRUE(a->items[4].is(json::Value::Type::kNull));
    EXPECT_EQ(v->find("s")->text,
              "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80/\b\f\r");
    EXPECT_EQ(v->find("s")->line, 2u);
    EXPECT_EQ(v->find("s")->col, 8u);
    EXPECT_EQ(v->find("o")->line, 3u);
    EXPECT_EQ(v->find("missing"), nullptr);
    EXPECT_EQ(a->find("a"), nullptr);
}

TEST(Json, RejectsNonStrictInputAtLineAndColumn)
{
    const std::pair<const char *, std::pair<std::size_t, std::size_t>>
        cases[] = {
            {"", {1, 1}},
            {"{\"a\":nan}", {1, 6}},
            {"[1,\n inf]", {2, 2}},
            {"[0x10]", {1, 3}},
            {"[1e400]", {1, 2}},
            {"[01]", {1, 3}},
            {"[1.]", {1, 4}},
            {"[.5]", {1, 2}},
            {"[+1]", {1, 2}},
            {"{\"a\":1,\"a\":2}", {1, 8}},
            {"{\"a\":1} x", {1, 9}},
            {"[1,]", {1, 4}},
            {"{\"a\":1,}", {1, 8}},
            {"{a:1}", {1, 2}},
            {"[\"\\x\"]", {1, 3}},
            {"[\"\\u12g4\"]", {1, 3}},
            {"[\"tab\there\"]", {1, 6}},
            {"[\"open", {1, 7}},
            {"[tru]", {1, 2}},
            {"\f[]", {1, 1}},
        };
    for (const auto &[text, where] : cases) {
        json::Error err;
        EXPECT_FALSE(json::parse(text, &err).has_value()) << text;
        EXPECT_EQ(err.line, where.first) << text << ": " << err.message;
        EXPECT_EQ(err.col, where.second) << text << ": " << err.message;
        EXPECT_FALSE(validJson(text)) << text;
    }
}

TEST(Json, NestingIsCappedAtMaxDepth)
{
    const auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    EXPECT_TRUE(json::parse(nested(json::kMaxDepth)).has_value());
    EXPECT_TRUE(validJson(nested(json::kMaxDepth)));
    json::Error err;
    EXPECT_FALSE(json::parse(nested(json::kMaxDepth + 1), &err));
    EXPECT_EQ(err.col, static_cast<std::size_t>(json::kMaxDepth) + 1);
    EXPECT_FALSE(validJson(nested(json::kMaxDepth + 1)));
    // Far deeper input is refused without recursing into it.
    EXPECT_FALSE(json::parse(nested(1000000)).has_value());
}

TEST(Json, ToIntChecksIntegralityAndRange)
{
    const auto as = [](const char *text) { return *json::parse(text); };
    EXPECT_EQ(json::toInt<std::uint64_t>(as("18446744073709551615")),
              18446744073709551615ull);
    EXPECT_FALSE(json::toInt<std::uint64_t>(as("18446744073709551616")));
    // Only plain integer tokens are read: an exponent or fraction
    // goes through a double, which is inexact above 2^53.
    EXPECT_FALSE(json::toInt<std::uint64_t>(as("1e3")));
    EXPECT_FALSE(json::toInt<std::uint64_t>(as("9007199254740993e0")));
    EXPECT_FALSE(json::toInt<std::uint64_t>(as("2.0")));
    EXPECT_EQ(json::toInt<std::uint64_t>(as("9007199254740993")),
              9007199254740993ull);
    EXPECT_EQ(json::toInt<std::uint64_t>(as("-0")), 0u);
    EXPECT_FALSE(json::toInt<std::uint64_t>(as("-1")));
    EXPECT_FALSE(json::toInt<std::uint64_t>(as("1.5")));
    EXPECT_FALSE(json::toInt<std::uint64_t>(as("1e30")));
    EXPECT_FALSE(json::toInt<std::uint64_t>(as("\"7\"")));
    EXPECT_EQ(json::toInt<std::uint32_t>(as("4294967295")), 4294967295u);
    EXPECT_FALSE(json::toInt<std::uint32_t>(as("4294967296")));
    EXPECT_EQ(json::toInt<std::int64_t>(as("-9223372036854775808")),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_FALSE(json::toInt<std::int64_t>(as("-9223372036854775809")));
    EXPECT_FALSE(json::toInt<std::int64_t>(as("9223372036854775808")));
    EXPECT_EQ(json::toInt<int>(as("-2")), -2);
}

} // namespace
} // namespace mouse
