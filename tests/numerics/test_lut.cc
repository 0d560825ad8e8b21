/** @file Tests for the two-level special-function lookup tables
 *  (Figures 13/14: truncation windows, storage budgets, accuracy). */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "numerics/activations.hh"
#include "numerics/bfloat16.hh"
#include "numerics/lut.hh"

namespace prose {
namespace {

TEST(GeluLut, StorageIsExactlyFourKilobytes)
{
    // 8 exponents x 2 signs x 128 mantissas x 2 bytes = 4 KiB (paper).
    const TwoLevelLut &lut = geluLut();
    EXPECT_EQ(lut.storageBytes(), 4096u);
    EXPECT_EQ(lut.segmentCount(), 16u);
}

TEST(ExpLut, StorageIsExactlySixKilobytes)
{
    // 12 exponents x 2 signs x 128 mantissas x 2 bytes = 6 KiB (paper).
    const TwoLevelLut &lut = expLut();
    EXPECT_EQ(lut.storageBytes(), 6144u);
    EXPECT_EQ(lut.segmentCount(), 24u);
}

TEST(GeluLut, ExactInWindow)
{
    // Inside the window the LUT stores the correctly-rounded bf16 GELU,
    // so it is bit-exact against round(geluTanh(x)).
    const TwoLevelLut &lut = geluLut();
    for (std::uint32_t bits = 0; bits <= 0xffff; ++bits) {
        const Bfloat16 x = Bfloat16::fromBits(
            static_cast<std::uint16_t>(bits));
        if (x.isNan() || x.isZero() || x.isInf() ||
            x.biasedExponent() == 0) {
            continue;
        }
        if (x.exponent() < -4 || x.exponent() > 3)
            continue;
        EXPECT_EQ(lut.lookup(x).bits(),
                  Bfloat16(geluTanh(x.toFloat())).bits())
            << "x=" << x.toFloat();
    }
}

TEST(GeluLut, BelowWindowIsZero)
{
    const TwoLevelLut &lut = geluLut();
    // |x| < 2^-4: approximated as 0 (Figure 13).
    EXPECT_EQ(lut.lookupFloat(0.03f), 0.0f);
    EXPECT_EQ(lut.lookupFloat(-0.03f), 0.0f);
    EXPECT_EQ(lut.lookupFloat(0.0f), 0.0f);
}

TEST(GeluLut, AboveWindowIsLinearOrZero)
{
    const TwoLevelLut &lut = geluLut();
    // Large positive: GELU(x) ~ x. Large negative: ~ 0.
    EXPECT_FLOAT_EQ(lut.lookupFloat(20.0f), quantizeBf16(20.0f));
    EXPECT_FLOAT_EQ(lut.lookupFloat(100.0f), quantizeBf16(100.0f));
    EXPECT_EQ(lut.lookupFloat(-20.0f), 0.0f);
}

TEST(GeluLut, AbsoluteErrorSmallEverywhere)
{
    // End-to-end accuracy over the range activations actually occupy.
    const TwoLevelLut &lut = geluLut();
    float worst = 0.0f;
    for (float x = -8.0f; x <= 8.0f; x += 1.0f / 128.0f) {
        const float err = std::fabs(lut.lookupFloat(x) - geluTanh(x));
        worst = std::max(worst, err);
    }
    // bf16 has ~2 decimal digits; the window keeps error near one ULP
    // of the output magnitude.
    EXPECT_LT(worst, 0.04f);
}

TEST(ExpLut, ExactInWindow)
{
    const TwoLevelLut &lut = expLut();
    for (std::uint32_t bits = 0; bits <= 0xffff; ++bits) {
        const Bfloat16 x = Bfloat16::fromBits(
            static_cast<std::uint16_t>(bits));
        if (x.isNan() || x.isZero() || x.isInf() ||
            x.biasedExponent() == 0) {
            continue;
        }
        if (x.exponent() < -6 || x.exponent() > 5)
            continue;
        EXPECT_EQ(lut.lookup(x).bits(),
                  Bfloat16(std::exp(x.toFloat())).bits())
            << "x=" << x.toFloat();
    }
}

TEST(ExpLut, BelowWindowIsOne)
{
    const TwoLevelLut &lut = expLut();
    // |x| < 2^-6: exp(x) ~ 1 (Figure 14).
    EXPECT_FLOAT_EQ(lut.lookupFloat(0.001f), 1.0f);
    EXPECT_FLOAT_EQ(lut.lookupFloat(-0.001f), 1.0f);
    EXPECT_FLOAT_EQ(lut.lookupFloat(0.0f), 1.0f);
}

TEST(ExpLut, AboveWindowSaturates)
{
    const TwoLevelLut &lut = expLut();
    // Large negative input flushes to zero; large positive clamps to
    // the largest finite bf16 rather than producing infinity.
    EXPECT_EQ(lut.lookupFloat(-100.0f), 0.0f);
    const float max_bf16 = Bfloat16::fromBits(0x7f7f).toFloat();
    EXPECT_FLOAT_EQ(lut.lookupFloat(100.0f), max_bf16);
}

TEST(ExpLut, RelativeErrorInSoftmaxRange)
{
    // Softmax scores land roughly in [-30, 10]; relative error there
    // must stay near bf16 resolution for model accuracy (Section 3.2).
    const TwoLevelLut &lut = expLut();
    for (float x = -30.0f; x <= 10.0f; x += 0.037f) {
        const float ref = std::exp(quantizeBf16(x));
        const float got = lut.lookupFloat(x);
        if (ref < 1e-30f)
            continue;
        EXPECT_LT(std::fabs(got - ref) / ref, 0.02f) << "x=" << x;
    }
}

TEST(Lut, NanPropagates)
{
    const TwoLevelLut &lut = expLut();
    const Bfloat16 nan = Bfloat16::fromBits(0x7fc0);
    EXPECT_TRUE(lut.lookup(nan).isNan());
}

TEST(Lut, DenormalsTakeBelowWindowPath)
{
    const TwoLevelLut &gelu = geluLut();
    const TwoLevelLut &exp = expLut();
    const Bfloat16 denormal = Bfloat16::fromBits(0x0001);
    EXPECT_EQ(gelu.lookup(denormal).toFloat(), 0.0f);
    EXPECT_EQ(exp.lookup(denormal).toFloat(), 1.0f);
}

TEST(Lut, InfinityTakesAboveWindowPath)
{
    const TwoLevelLut &gelu = geluLut();
    const Bfloat16 pos_inf = Bfloat16::fromBits(0x7f80);
    const Bfloat16 neg_inf = Bfloat16::fromBits(0xff80);
    EXPECT_TRUE(gelu.lookup(pos_inf).isInf());
    EXPECT_EQ(gelu.lookup(neg_inf).toFloat(), 0.0f);
}

TEST(Lut, FlattenMatchesLookupExhaustively)
{
    // The flat gather table the fast SIMD wavefront and the model use
    // must agree with the hardware-faithful two-level lookup on every
    // one of the 65536 bf16 input patterns (NaNs, denormals, and both
    // window boundaries included) — bit-for-bit on the widened fp32
    // output. Checked for both shared tables and one custom window.
    const TwoLevelLut narrow("GELU", &geluTanh, -2, 1,
                             TwoLevelLut::BoundaryPolicy::GeluLike);
    for (const TwoLevelLut *lut : { &geluLut(), &expLut(), &narrow }) {
        const std::vector<std::uint32_t> &flat = lut->flatFloatBits();
        ASSERT_EQ(flat.size(), 65536u);
        for (std::uint32_t bits = 0; bits < 65536u; ++bits) {
            const float want =
                lut->lookup(Bfloat16::fromBits(
                               static_cast<std::uint16_t>(bits)))
                    .toFloat();
            std::uint32_t want_bits;
            std::memcpy(&want_bits, &want, sizeof(want_bits));
            ASSERT_EQ(flat[bits], want_bits) << "pattern " << bits;
        }
    }
}

TEST(Lut, OneLookupTouchesSingleSegment)
{
    // Structural sanity: window bounds are honored by segmentCount and
    // the exponent accessors.
    const TwoLevelLut &lut = geluLut();
    EXPECT_EQ(lut.exponentLow(), -4);
    EXPECT_EQ(lut.exponentHigh(), 3);
    EXPECT_EQ(lut.name(), "GELU");
}

} // namespace
} // namespace prose
