/**
 * @file
 * Tests for the leaf formatters of util/json: every string quote()
 * writes parses back unchanged, and number() prints `%.<N>g` for finite
 * values and `null` otherwise.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "util/json.hh"

namespace mipp {
namespace {

TEST(Json, QuoteRoundTripsEveryByte)
{
    std::string s;
    for (int c = 1; c < 256; ++c)
        s += static_cast<char>(c);
    json::Value v;
    ASSERT_TRUE(json::parse(json::quote(s), v).isOk());
    EXPECT_EQ(v.str(), s);
}

TEST(Json, NumberMatchesPrintfForFiniteValues)
{
    const double values[] = {0.0, -0.0, 1.0, -2.5, 1.0 / 3.0, 6.0221e23,
                             4.9e-324, 1.7976931348623157e308, 12345.0};
    for (int digits : {8, 10, 17}) {
        for (double v : values) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.*g", digits, v);
            EXPECT_EQ(json::number(v, digits), buf) << digits;
        }
    }
    EXPECT_EQ(json::number(1.0 / 3.0, 17), "0.33333333333333331");
}

TEST(Json, NumberWritesNonFiniteAsNull)
{
    EXPECT_EQ(json::number(std::nan(""), 10), "null");
    EXPECT_EQ(json::number(std::numeric_limits<double>::infinity(), 8),
              "null");
    EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity(), 17),
              "null");
}

TEST(Json, SeventeenDigitsReadBackExactly)
{
    for (double v : {0.1, 1.0 / 3.0, 2.0 / 7.0e9, -1.2345678901234567e-5}) {
        json::Value parsed;
        ASSERT_TRUE(json::parse(json::number(v, 17), parsed).isOk());
        EXPECT_EQ(parsed.number(), v);
    }
}

} // namespace
} // namespace mipp
