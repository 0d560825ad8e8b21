/** @file Tests for the software bfloat16 type. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/random.hh"
#include "numerics/bfloat16.hh"

namespace prose {
namespace {

TEST(Bfloat16, ZeroDefault)
{
    Bfloat16 z;
    EXPECT_TRUE(z.isZero());
    EXPECT_EQ(z.toFloat(), 0.0f);
}

TEST(Bfloat16, ExactSmallIntegers)
{
    for (int i = -256; i <= 256; ++i) {
        const Bfloat16 v(static_cast<float>(i));
        EXPECT_EQ(v.toFloat(), static_cast<float>(i)) << "i=" << i;
    }
}

TEST(Bfloat16, RoundTripIsIdentityOnAllBf16Values)
{
    // Property: widening then re-rounding any bf16 value is lossless.
    for (std::uint32_t bits = 0; bits <= 0xffff; ++bits) {
        const Bfloat16 v = Bfloat16::fromBits(
            static_cast<std::uint16_t>(bits));
        if (v.isNan())
            continue; // NaN payload may be quieted
        const Bfloat16 round_trip(v.toFloat());
        EXPECT_EQ(round_trip.bits(), v.bits()) << "bits=" << bits;
    }
}

TEST(Bfloat16, RoundToNearest)
{
    // 1.0 has bits 0x3f80. The next bf16 up is 1.0078125 (0x3f81).
    // 1.003 is closer to 1.0; 1.006 is closer to 1.0078125.
    EXPECT_EQ(Bfloat16(1.003f).toFloat(), 1.0f);
    EXPECT_NEAR(Bfloat16(1.006f).toFloat(), 1.0078125f, 1e-7);
}

TEST(Bfloat16, TiesGoToEven)
{
    // Exactly halfway between 1.0 (mantissa 0x00, even) and 1.0078125
    // (mantissa 0x01, odd): 1.00390625 -> rounds down to even.
    EXPECT_EQ(Bfloat16(1.00390625f).toFloat(), 1.0f);
    // Halfway between 1.0078125 (odd) and 1.015625 (0x02, even):
    // 1.01171875 -> rounds up to even.
    EXPECT_NEAR(Bfloat16(1.01171875f).toFloat(), 1.015625f, 1e-7);
}

TEST(Bfloat16, FieldAccessors)
{
    // -1.5 = sign 1, exponent 0 (biased 127), mantissa 0x40.
    const Bfloat16 v(-1.5f);
    EXPECT_EQ(v.signBit(), 1);
    EXPECT_EQ(v.exponent(), 0);
    EXPECT_EQ(v.biasedExponent(), 127);
    EXPECT_EQ(v.mantissa(), 0x40);
}

TEST(Bfloat16, ExponentOfPowersOfTwo)
{
    EXPECT_EQ(Bfloat16(1.0f).exponent(), 0);
    EXPECT_EQ(Bfloat16(2.0f).exponent(), 1);
    EXPECT_EQ(Bfloat16(0.5f).exponent(), -1);
    EXPECT_EQ(Bfloat16(16.0f).exponent(), 4);
    EXPECT_EQ(Bfloat16(0.0625f).exponent(), -4);
}

TEST(Bfloat16, InfinityHandling)
{
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_TRUE(Bfloat16(inf).isInf());
    EXPECT_TRUE(Bfloat16(-inf).isInf());
    EXPECT_EQ(Bfloat16(inf).toFloat(), inf);
    // Overflow on rounding saturates to infinity like IEEE RNE.
    EXPECT_TRUE(Bfloat16(3.4e38f).isInf());
}

TEST(Bfloat16, NanPreserved)
{
    const Bfloat16 nan(std::numeric_limits<float>::quiet_NaN());
    EXPECT_TRUE(nan.isNan());
    EXPECT_TRUE(std::isnan(nan.toFloat()));
}

TEST(Bfloat16, NegationFlipsSignBitOnly)
{
    // Round-to-nearest-even is sign-symmetric: rounding -x gives x's
    // bf16 with only the sign bit set.
    const Bfloat16 v(2.5f);
    EXPECT_EQ(Bfloat16(-2.5f).toFloat(), -2.5f);
    EXPECT_EQ(Bfloat16(-2.5f).bits() ^ v.bits(), 0x8000);
    Rng rng(78);
    for (int i = 0; i < 2000; ++i) {
        const float x = static_cast<float>(rng.uniform(-100.0, 100.0));
        EXPECT_EQ(Bfloat16(-x).bits() ^ Bfloat16(x).bits(), 0x8000)
            << "x=" << x;
    }
}

TEST(Bfloat16, ZerosCompareEqual)
{
    const Bfloat16 pos(0.0f), neg(-0.0f);
    EXPECT_TRUE(pos.isZero());
    EXPECT_TRUE(neg.isZero());
    EXPECT_EQ(pos.toFloat(), neg.toFloat());
    EXPECT_EQ(pos.bits() ^ neg.bits(), 0x8000);
}

TEST(Bfloat16, RelativeErrorBounded)
{
    // 7 mantissa bits -> relative error <= 2^-8 for normal values.
    Rng rng(88);
    for (int i = 0; i < 5000; ++i) {
        const float x = static_cast<float>(
            rng.uniform(1e-3, 1e3) * (rng.uniform() < 0.5 ? -1.0 : 1.0));
        const float q = quantizeBf16(x);
        EXPECT_LE(std::fabs(q - x) / std::fabs(x), 1.0f / 256.0f)
            << "x=" << x;
    }
}

TEST(Bfloat16, OrderingViaLess)
{
    EXPECT_TRUE(Bfloat16(1.0f) < Bfloat16(2.0f));
    EXPECT_FALSE(Bfloat16(2.0f) < Bfloat16(1.0f));
    EXPECT_TRUE(Bfloat16(-3.0f) < Bfloat16(-2.0f));
}

TEST(Bfloat16, TruncationDropsLowBitsExactly)
{
    // 1.0 + 2^-20 truncates to exactly 1.0 (the low fp32 bits vanish).
    const float x = 1.0f + std::ldexp(1.0f, -20);
    EXPECT_EQ(truncateBf16(x), 1.0f);
    // Truncation never rounds up: pick a value just below the next
    // representable bf16 and check it truncates down.
    const float just_below = std::nextafter(1.0078125f, 0.0f);
    EXPECT_EQ(truncateBf16(just_below), 1.0f);
    // Rounding, in contrast, goes up.
    EXPECT_NEAR(quantizeBf16(just_below), 1.0078125f, 1e-7);
}

TEST(Bfloat16, TruncationIsIdentityOnBf16Values)
{
    for (std::uint32_t bits = 0; bits <= 0xffff; ++bits) {
        const Bfloat16 v = Bfloat16::fromBits(
            static_cast<std::uint16_t>(bits));
        if (v.isNan())
            continue;
        EXPECT_EQ(truncateToBf16(v.toFloat()).bits(), v.bits());
    }
}

TEST(Bfloat16, FlipFloatBitIsItsOwnInverse)
{
    const float value = 3.14159f;
    for (std::uint32_t bit = 0; bit < 32; ++bit) {
        const float flipped = flipFloatBit(value, bit);
        EXPECT_NE(std::memcmp(&flipped, &value, sizeof(float)), 0);
        const float back = flipFloatBit(flipped, bit);
        EXPECT_EQ(std::memcmp(&back, &value, sizeof(float)), 0);
    }
}

TEST(Bfloat16, FlipFloatBitHitsTheExpectedField)
{
    // Sign bit negates; clearing the exponent LSB of 1.0 halves it.
    EXPECT_EQ(flipFloatBit(2.5f, 31), -2.5f);
    EXPECT_EQ(flipFloatBit(1.0f, 23), 0.5f);
    // Mantissa bit 22 of 1.0 adds 2^-1.
    EXPECT_EQ(flipFloatBit(1.0f, 22), 1.5f);
}

TEST(Bfloat16, SetFloatBitForcesAndIsIdempotent)
{
    const float forced = setFloatBit(1.0f, 22, true);
    EXPECT_EQ(forced, 1.5f);
    EXPECT_EQ(setFloatBit(forced, 22, true), forced);
    EXPECT_EQ(setFloatBit(forced, 22, false), 1.0f);
    EXPECT_EQ(setFloatBit(1.0f, 22, false), 1.0f);
}

} // namespace
} // namespace prose
