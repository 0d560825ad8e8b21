/** @file Tests for the NVLink model and lane partitions. */

#include <gtest/gtest.h>

#include "accel/link_model.hh"

namespace prose {
namespace {

TEST(LinkSpec, PaperBandwidthPoints)
{
    EXPECT_DOUBLE_EQ(LinkSpec::nvlink2At80().totalBytesPerSecond, 240e9);
    EXPECT_DOUBLE_EQ(LinkSpec::nvlink2At90().totalBytesPerSecond, 270e9);
    EXPECT_DOUBLE_EQ(LinkSpec::nvlink3At80().totalBytesPerSecond, 480e9);
    EXPECT_DOUBLE_EQ(LinkSpec::nvlink3At90().totalBytesPerSecond, 540e9);
    EXPECT_GT(LinkSpec::infinite().totalBytesPerSecond, 1e15);
}

TEST(LinkSpec, Nvlink2HasSixLanes)
{
    // Section 4.2: 6 x 45 GB/s lanes at 90%.
    const LinkSpec link = LinkSpec::nvlink2At90();
    EXPECT_EQ(link.lanes, 6u);
    EXPECT_DOUBLE_EQ(link.laneBytesPerSecond(), 45e9);
}

TEST(LinkSpec, PaperSweepHasFivePoints)
{
    const auto sweep = LinkSpec::paperSweep();
    ASSERT_EQ(sweep.size(), 5u);
    for (std::size_t i = 1; i < sweep.size(); ++i)
        EXPECT_GT(sweep[i].totalBytesPerSecond,
                  sweep[i - 1].totalBytesPerSecond);
}

TEST(LinkSpec, CustomBandwidth)
{
    const LinkSpec link = LinkSpec::custom(360.0);
    EXPECT_DOUBLE_EQ(link.totalBytesPerSecond, 360e9);
}

TEST(LinkSpec, CustomKeepsNvlink2LaneGranularity)
{
    // custom() models "the same physical link, different achievable
    // rate": the NVLink 2.0 lane count, so per-lane bandwidth scales
    // with the total and partitions stay comparable across a sweep.
    const LinkSpec link = LinkSpec::custom(360.0);
    EXPECT_EQ(link.lanes, 6u);
    EXPECT_DOUBLE_EQ(link.laneBytesPerSecond(), 60e9);
    EXPECT_FALSE(link.isInfinite());
    EXPECT_TRUE(LinkSpec::infinite().isInfinite());
}

TEST(LinkSpec, ValidateAcceptsFactories)
{
    for (const LinkSpec &link : LinkSpec::paperSweep())
        link.validate(); // must not panic
}

TEST(LinkSpecDeathTest, ValidateRejectsBadSpecs)
{
    LinkSpec no_lanes = LinkSpec::nvlink2At80();
    no_lanes.lanes = 0;
    EXPECT_DEATH(no_lanes.validate(), "at least one lane");
}

TEST(StreamSpec, DescribeNamesTheModeAndDepth)
{
    StreamSpec spec;
    EXPECT_EQ(spec.describe(), "double-bufferedx2");
    spec.mode = StreamMode::Serialized;
    EXPECT_EQ(spec.describe(), "serialized");
    spec.mode = StreamMode::Ideal;
    EXPECT_EQ(spec.describe(), "ideal");
}

TEST(StreamSpecDeathTest, ValidateRejectsShallowDoubleBuffer)
{
    StreamSpec spec;
    spec.bufferDepth = 1;
    EXPECT_DEATH(spec.validate(), "two buffers");
    spec.bufferDepth = 0;
    EXPECT_DEATH(spec.validate(), "depth");
}

TEST(LinkCompression, NoneIsPassthrough)
{
    const LinkSpec link = LinkSpec::nvlink2At80();
    EXPECT_DOUBLE_EQ(link.compressionRatio(), 1.0);
    EXPECT_EQ(link.wireBytes(0), 0u);
    EXPECT_EQ(link.wireBytes(1 << 20), std::uint64_t{ 1 } << 20);
}

TEST(LinkCompression, WireBytesShrinkAndNeverExpand)
{
    for (const LinkCompression codec :
         { LinkCompression::ZeroRun, LinkCompression::Delta }) {
        LinkSpec link = LinkSpec::nvlink2At80();
        link.compression = codec;
        const double ratio = link.compressionRatio();
        EXPECT_GT(ratio, 0.0);
        EXPECT_LE(ratio, 1.0);
        // Representative payloads, including tiny ones where ceil
        // rounding could otherwise expand the frame.
        for (const std::uint64_t logical :
             { std::uint64_t{ 1 }, std::uint64_t{ 2 },
               std::uint64_t{ 4096 }, std::uint64_t{ 1 } << 24 }) {
            const std::uint64_t wire = link.wireBytes(logical);
            EXPECT_LE(wire, logical);
            EXPECT_GT(wire, 0u);
        }
        EXPECT_EQ(link.wireBytes(0), 0u);
    }
}

TEST(LinkCompression, RatiosFollowTheWorkloadStatistics)
{
    // The workload constants: a quarter of the words are zero (ZeroRun,
    // 16-word mean runs, one tag bit per word) and half share their
    // predecessor's high byte (Delta, one header byte per 64 words).
    LinkSpec zero = LinkSpec::nvlink2At80();
    zero.compression = LinkCompression::ZeroRun;
    EXPECT_NEAR(zero.compressionRatio(),
                0.75 + 0.25 / 16.0 + 1.0 / 16.0, 1e-12);

    LinkSpec delta = LinkSpec::nvlink2At80();
    delta.compression = LinkCompression::Delta;
    EXPECT_NEAR(delta.compressionRatio(), 0.5 + 0.5 / 2.0 + 1.0 / 128.0,
                1e-12);
}

TEST(LanePartition, BandwidthSplitsByLaneCount)
{
    const LinkSpec link = LinkSpec::nvlink2At90();
    const LanePartition lanes{ 3, 1, 2 };
    EXPECT_DOUBLE_EQ(lanes.bandwidthFor(ArrayType::M, link), 135e9);
    EXPECT_DOUBLE_EQ(lanes.bandwidthFor(ArrayType::G, link), 45e9);
    EXPECT_DOUBLE_EQ(lanes.bandwidthFor(ArrayType::E, link), 90e9);
}

TEST(LanePartition, TotalsAndAccessors)
{
    const LanePartition lanes{ 2, 2, 2 };
    EXPECT_EQ(lanes.total(), 6u);
    EXPECT_EQ(lanes.lanesFor(ArrayType::M), 2u);
    EXPECT_EQ(lanes.lanesFor(ArrayType::E), 2u);
}

TEST(LanePartition, EnumerateCoversAllPositiveSplits)
{
    const auto options = LanePartition::enumerate(6);
    // Compositions of 6 into 3 positive parts: C(5,2) = 10.
    EXPECT_EQ(options.size(), 10u);
    for (const auto &option : options) {
        EXPECT_EQ(option.total(), 6u);
        EXPECT_GE(option.mLanes, 1u);
        EXPECT_GE(option.gLanes, 1u);
        EXPECT_GE(option.eLanes, 1u);
    }
}

TEST(LanePartition, EnumerateTwelveLanes)
{
    // C(11,2) = 55 compositions for the NVLink 3.0 lane count.
    EXPECT_EQ(LanePartition::enumerate(12).size(), 55u);
}

TEST(LanePartition, EnumerateThreeLanesIsTheSingleton)
{
    // Three lanes leave exactly one way to feed every type.
    const auto options = LanePartition::enumerate(3);
    ASSERT_EQ(options.size(), 1u);
    EXPECT_EQ(options[0].mLanes, 1u);
    EXPECT_EQ(options[0].gLanes, 1u);
    EXPECT_EQ(options[0].eLanes, 1u);
}

TEST(LanePartitionDeathTest, EnumerateRejectsStarvedLinks)
{
    // Fewer than three lanes cannot feed all three array types; a
    // one-lane link must be rejected, not silently enumerate nothing.
    EXPECT_DEATH(LanePartition::enumerate(1), "at least one lane");
    EXPECT_DEATH(LanePartition::enumerate(0), "at least one lane");
}

TEST(LanePartitionDeathTest, MismatchedPartitionPanics)
{
    const LinkSpec link = LinkSpec::nvlink2At90();
    const LanePartition lanes{ 2, 2, 3 }; // 7 lanes on a 6-lane link
    EXPECT_DEATH(lanes.bandwidthFor(ArrayType::M, link), "cover");
}

} // namespace
} // namespace prose
