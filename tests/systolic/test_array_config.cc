/** @file Tests for array geometry descriptors. */

#include <gtest/gtest.h>

#include "systolic/array_config.hh"

namespace prose {
namespace {

TEST(ArrayGeometry, TypeFactoriesSetCapabilities)
{
    const ArrayGeometry m = ArrayGeometry::mType();
    EXPECT_EQ(m.type, ArrayType::M);
    EXPECT_EQ(m.dim, 64u);
    EXPECT_FALSE(m.hasGelu);
    EXPECT_FALSE(m.hasExp);

    const ArrayGeometry g = ArrayGeometry::gType();
    EXPECT_EQ(g.type, ArrayType::G);
    EXPECT_TRUE(g.hasGelu);
    EXPECT_FALSE(g.hasExp);

    const ArrayGeometry e = ArrayGeometry::eType();
    EXPECT_EQ(e.type, ArrayType::E);
    EXPECT_TRUE(e.hasExp);
    EXPECT_FALSE(e.hasGelu);
}

TEST(ArrayGeometry, PeCount)
{
    EXPECT_EQ(ArrayGeometry::mType(64).peCount(), 4096u);
    EXPECT_EQ(ArrayGeometry::gType(32).peCount(), 1024u);
    EXPECT_EQ(ArrayGeometry::eType(16).peCount(), 256u);
}

TEST(ArrayGeometry, PaperClocks)
{
    // Section 4.1: matmul double-pumped at 1.6 GHz, SIMD at 800 MHz.
    EXPECT_DOUBLE_EQ(kMatmulClockHz, 1.6e9);
    EXPECT_DOUBLE_EQ(kSimdClockHz, 800e6);
}

TEST(ArrayGeometry, DefaultBufferDepthIsEight)
{
    EXPECT_EQ(kStreamBufferDepth, 8u);
}

TEST(ArrayGeometry, DescribeMentionsTypeAndLuts)
{
    EXPECT_EQ(ArrayGeometry::mType(64).describe(), "M-Type 64x64");
    EXPECT_EQ(ArrayGeometry::gType(32).describe(),
              "G-Type 32x32 +GELU");
    EXPECT_EQ(ArrayGeometry::eType(16).describe(), "E-Type 16x16 +Exp");
}

TEST(ArrayType, ToString)
{
    EXPECT_STREQ(toString(ArrayType::M), "M");
    EXPECT_STREQ(toString(ArrayType::G), "G");
    EXPECT_STREQ(toString(ArrayType::E), "E");
}

} // namespace
} // namespace prose
