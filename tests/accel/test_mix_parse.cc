/** @file Tests for mix/lane spec parsing. */

#include <gtest/gtest.h>

#include "accel/mix_parse.hh"

namespace prose {
namespace {

TEST(MixParse, ParsesPaperBestPerf)
{
    const auto groups = parseMixSpec("M64x2,G16x10,E16x22");
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0].geometry.type, ArrayType::M);
    EXPECT_EQ(groups[0].geometry.dim, 64u);
    EXPECT_EQ(groups[0].count, 2u);
    EXPECT_TRUE(groups[1].geometry.hasGelu);
    EXPECT_EQ(groups[1].count, 10u);
    EXPECT_TRUE(groups[2].geometry.hasExp);
    EXPECT_EQ(groups[2].count, 22u);
}

TEST(MixParse, AcceptsWhitespaceAndCase)
{
    const auto groups = parseMixSpec(" m64X1 , g32x3 , e16x4 ");
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[1].geometry.dim, 32u);
}

TEST(MixParse, OutOfOrderGroupsLandInTheirSlots)
{
    const ArrayPools pools = parseMixSpec("E16x4,M64x1,G32x2");
    EXPECT_EQ(pools[0].geometry.type, ArrayType::M);
    EXPECT_EQ(pools[0].geometry.dim, 64u);
    EXPECT_EQ(pools[0].count, 1u);
    EXPECT_EQ(pools[1].geometry.type, ArrayType::G);
    EXPECT_EQ(pools[1].geometry.dim, 32u);
    EXPECT_EQ(pools[1].count, 2u);
    EXPECT_EQ(pools[2].geometry.type, ArrayType::E);
    EXPECT_EQ(pools[2].geometry.dim, 16u);
    EXPECT_EQ(pools[2].count, 4u);
    const ProseConfig config = configFromSpec(
        "E16x4,M64x1,G32x2", "3,1,2", LinkSpec::nvlink2At90());
    EXPECT_NE(config.describe().find("[1x M-Type 64x64, 2x G-Type 32x32"),
              std::string::npos);
}

TEST(MixParse, MissingTypeLeavesItsSlotEmpty)
{
    const ArrayPools pools = parseMixSpec("G16x4,E16x4");
    EXPECT_EQ(pools[0].geometry.type, ArrayType::M);
    EXPECT_EQ(pools[0].count, 0u);
    EXPECT_EQ(pools[1].count, 4u);
}

TEST(MixParse, LaneSpec)
{
    const LanePartition lanes = parseLaneSpec("3,1,2");
    EXPECT_EQ(lanes.mLanes, 3u);
    EXPECT_EQ(lanes.gLanes, 1u);
    EXPECT_EQ(lanes.eLanes, 2u);
}

TEST(MixParse, ConfigFromSpecValidates)
{
    const ProseConfig config = configFromSpec(
        "M64x2,G16x10,E16x22", "3,1,2", LinkSpec::nvlink2At90());
    EXPECT_EQ(config.totalPes(), 16384u);
    EXPECT_EQ(config.name, "M64x2,G16x10,E16x22");
}

TEST(MixParseDeathTest, MalformedGroupIsFatal)
{
    EXPECT_EXIT(parseMixSpec("M64-2"), testing::ExitedWithCode(1),
                "must look like");
    EXPECT_EXIT(parseMixSpec("Q64x2,G16x1,E16x1"),
                testing::ExitedWithCode(1), "unknown array type");
    EXPECT_EXIT(parseMixSpec("M64x0,G16x1,E16x1"),
                testing::ExitedWithCode(1), "zero count");
    EXPECT_EXIT(parseMixSpec("M64xtwo"), testing::ExitedWithCode(1),
                "not an in-range number");
    EXPECT_EXIT(parseMixSpec(""), testing::ExitedWithCode(1), "empty");
}

TEST(MixParseDeathTest, ZeroDimensionIsFatal)
{
    EXPECT_EXIT(parseMixSpec("M0x2,G16x1,E16x1"),
                testing::ExitedWithCode(1), "zero array dimension");
}

TEST(MixParseDeathTest, OverflowingCountIsCleanError)
{
    // A digit string past 32 bits must be a fatal() diagnostic, not an
    // uncaught std::out_of_range from the parser internals.
    EXPECT_EXIT(parseMixSpec("M64x99999999999999999999"),
                testing::ExitedWithCode(1), "not an in-range number");
    EXPECT_EXIT(parseMixSpec("M4294967296x2"),
                testing::ExitedWithCode(1), "not an in-range number");
    EXPECT_EXIT(parseLaneSpec("3,99999999999999999999,3"),
                testing::ExitedWithCode(1), "not an in-range number");
}

// Fuzzing regressions (see tests/fuzz/corpus/mix_parse): dimensions and
// counts used to be unbounded, so "M99999x99999" survived parsing and
// only died OOM-allocating the instance list downstream.
TEST(MixParseDeathTest, SanityBoundsRejectHugeDimsAndCounts)
{
    EXPECT_EXIT(parseMixSpec("M8192x1,G16x1,E16x1"),
                testing::ExitedWithCode(1), "sanity bound");
    EXPECT_EXIT(parseMixSpec("M64x1,G16x1,E16x99999"),
                testing::ExitedWithCode(1), "sanity bound");
}

TEST(MixParse, BoundaryDimAndCountStillParse)
{
    const auto groups = parseMixSpec("M4096x1,G16x1,E16x65536");
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0].geometry.dim, 4096u);
    EXPECT_EQ(groups[2].count, 65536u);
}

// configFromSpec assembles text input into a config; a malformed spec
// must die in fatal() (user error, exit 1) before it can ever reach
// ProseConfig::validate()'s PROSE_ASSERT (simulator bug, abort).
TEST(MixParseDeathTest, ConfigFromSpecRejectsLaneMismatchCleanly)
{
    EXPECT_EXIT(configFromSpec("M64x2,G16x1,E16x1", "9,9,9",
                               LinkSpec::nvlink2At90()),
                testing::ExitedWithCode(1), "lane");
}

TEST(MixParseDeathTest, ConfigFromSpecRejectsMissingTypeCleanly)
{
    EXPECT_EXIT(configFromSpec("G16x4,E16x4", "3,1,2",
                               LinkSpec::nvlink2At90()),
                testing::ExitedWithCode(1), "at least one array");
}

TEST(MixParseDeathTest, DuplicateTypeIsFatal)
{
    EXPECT_EXIT(parseMixSpec("M64x1,M64x1,G16x1,E16x1"),
                testing::ExitedWithCode(1), "appears twice");
}

TEST(MixParseDeathTest, BadLaneSpecIsFatal)
{
    EXPECT_EXIT(parseLaneSpec("3,1"), testing::ExitedWithCode(1),
                "three numbers");
    EXPECT_EXIT(parseLaneSpec("3,0,3"), testing::ExitedWithCode(1),
                "at least one lane");
}

} // namespace
} // namespace prose
