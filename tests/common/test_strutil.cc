/** @file Tests for string utilities. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/strutil.hh"

namespace prose {
namespace {

TEST(Strutil, SplitBasic)
{
    const auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strutil, SplitKeepsEmptyFields)
{
    const auto parts = split(",x,", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "");
    EXPECT_EQ(parts[1], "x");
    EXPECT_EQ(parts[2], "");
}

TEST(Strutil, SplitNoSeparator)
{
    const auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Strutil, TrimBothEnds)
{
    EXPECT_EQ(trim("  hello\t\n"), "hello");
}

TEST(Strutil, TrimAllWhitespace)
{
    EXPECT_EQ(trim(" \t \n"), "");
}

TEST(Strutil, TrimNoop)
{
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strutil, ToUpper)
{
    EXPECT_EQ(toUpper("AcDef123"), "ACDEF123");
}

// --- checked numeric parsing (the prose-lint checked-parse helpers) ---

TEST(CheckedParse, U64AcceptsPlainDigits)
{
    std::uint64_t value = 99;
    EXPECT_TRUE(parseU64("0", value));
    EXPECT_EQ(value, 0u);
    EXPECT_TRUE(parseU64("18446744073709551615", value));
    EXPECT_EQ(value, std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(parseU64("007", value));
    EXPECT_EQ(value, 7u);
}

TEST(CheckedParse, U64RejectsOverflowInsteadOfWrapping)
{
    // strtoull would clamp; istream >> would sign-wrap "-1". Both are
    // how a 20-digit typo becomes an 18-quintillion-entry allocation.
    std::uint64_t value = 0;
    EXPECT_FALSE(parseU64("18446744073709551616", value));
    EXPECT_FALSE(parseU64("99999999999999999999", value));
}

TEST(CheckedParse, U64RejectsSignsWhitespaceAndJunk)
{
    std::uint64_t value = 0;
    EXPECT_FALSE(parseU64("", value));
    EXPECT_FALSE(parseU64("-1", value));
    EXPECT_FALSE(parseU64("+1", value));
    EXPECT_FALSE(parseU64(" 1", value));
    EXPECT_FALSE(parseU64("1 ", value));
    EXPECT_FALSE(parseU64("12x", value));
    EXPECT_FALSE(parseU64("0x10", value));
    EXPECT_FALSE(parseU64("1e3", value));
}

TEST(CheckedParse, U32BoundsThe32BitRange)
{
    std::uint32_t value = 0;
    EXPECT_TRUE(parseU32("4294967295", value));
    EXPECT_EQ(value, std::numeric_limits<std::uint32_t>::max());
    EXPECT_FALSE(parseU32("4294967296", value));
    EXPECT_FALSE(parseU32("-1", value));
}

TEST(CheckedParse, DoubleAcceptsUsualForms)
{
    double value = 0.0;
    EXPECT_TRUE(parseDouble("1.5", value));
    EXPECT_DOUBLE_EQ(value, 1.5);
    EXPECT_TRUE(parseDouble("-2e-3", value));
    EXPECT_DOUBLE_EQ(value, -2e-3);
    EXPECT_TRUE(parseDouble(".5", value));
    EXPECT_DOUBLE_EQ(value, 0.5);
    EXPECT_TRUE(parseDouble("0", value));
    EXPECT_DOUBLE_EQ(value, 0.0);
}

TEST(CheckedParse, DoubleRejectsPartialAndPaddedParses)
{
    double value = 0.0;
    EXPECT_FALSE(parseDouble("", value));
    EXPECT_FALSE(parseDouble("1.5x", value));
    EXPECT_FALSE(parseDouble(" 1.5", value));
    EXPECT_FALSE(parseDouble("1.5 ", value));
    EXPECT_FALSE(parseDouble("--1", value));
}

TEST(CheckedParse, DoubleRejectsOverflowKeepsUnderflow)
{
    double value = 0.0;
    EXPECT_FALSE(parseDouble("1e999", value));
    EXPECT_FALSE(parseDouble("-1e999", value));
    // Gradual underflow to zero is an acceptable representation...
    EXPECT_TRUE(parseDouble("1e-999", value));
    EXPECT_DOUBLE_EQ(value, 0.0);
}

TEST(CheckedParse, FiniteDoubleRejectsNanAndInf)
{
    // "nan" passes every (rate < 0 || rate > 1) range check, which is
    // exactly how a corrupt campaign spec used to validate.
    double value = 0.0;
    EXPECT_FALSE(parseFiniteDouble("nan", value));
    EXPECT_FALSE(parseFiniteDouble("NaN", value));
    EXPECT_FALSE(parseFiniteDouble("inf", value));
    EXPECT_FALSE(parseFiniteDouble("-inf", value));
    EXPECT_FALSE(parseFiniteDouble("infinity", value));
    EXPECT_TRUE(parseFiniteDouble("0.25", value));
    EXPECT_DOUBLE_EQ(value, 0.25);
}

TEST(CheckedParse, DoubleAllowsNanInfWhenCallerWantsThem)
{
    double value = 0.0;
    EXPECT_TRUE(parseDouble("nan", value));
    EXPECT_TRUE(std::isnan(value));
    EXPECT_TRUE(parseDouble("inf", value));
    EXPECT_TRUE(std::isinf(value));
}

} // namespace
} // namespace prose
