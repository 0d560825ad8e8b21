/** @file Tests for the Table 4 named configurations. */

#include <gtest/gtest.h>

#include "accel/prose_config.hh"

namespace prose {
namespace {

TEST(ProseConfig, BestPerfMatchesTable4)
{
    const ProseConfig config = ProseConfig::bestPerf();
    EXPECT_EQ(config.totalPes(), 16384u);
    EXPECT_EQ(config.groups[typeIndex(ArrayType::M)].count, 2u);
    EXPECT_EQ(config.groups[typeIndex(ArrayType::G)].count, 10u);
    EXPECT_EQ(config.groups[typeIndex(ArrayType::E)].count, 22u);
}

TEST(ProseConfig, MostEfficientMatchesTable4)
{
    const ProseConfig config = ProseConfig::mostEfficient();
    EXPECT_EQ(config.totalPes(), 16384u);
    EXPECT_EQ(config.groups[typeIndex(ArrayType::G)].count, 3u);
    EXPECT_EQ(config.groups[typeIndex(ArrayType::E)].count, 20u);
}

TEST(ProseConfig, PlusConfigsHave20kPes)
{
    EXPECT_EQ(ProseConfig::bestPerfPlus().totalPes(), 20480u);
    EXPECT_EQ(ProseConfig::mostEfficientPlus().totalPes(), 20480u);
    EXPECT_EQ(ProseConfig::homogeneousPlus().totalPes(), 20480u);
}

TEST(ProseConfig, HomogeneousUses64x64Only)
{
    const ProseConfig config = ProseConfig::homogeneous();
    EXPECT_EQ(config.totalPes(), 16384u);
    for (const auto &group : config.groups)
        EXPECT_EQ(group.geometry.dim, 64u);
}

TEST(ProseConfig, EverySlotHoldsItsOwnType)
{
    for (const ProseConfig &config :
         { ProseConfig::bestPerf(), ProseConfig::mostEfficient(),
           ProseConfig::homogeneous(), ProseConfig::bestPerfPlus(),
           ProseConfig::mostEfficientPlus(), ProseConfig::homogeneousPlus(),
           ProseConfig::fourBy64Homogeneous() }) {
        for (ArrayType type : kArrayTypes) {
            EXPECT_EQ(config.groups[typeIndex(type)].geometry.type, type)
                << config.name;
            EXPECT_GT(config.groups[typeIndex(type)].count, 0u)
                << config.name;
        }
    }
}

TEST(ProseConfig, DefaultThreadsIs32)
{
    // Section 3.1: "Through experimentation, we chose 32 threads."
    EXPECT_EQ(ProseConfig::bestPerf().threads, 32u);
}

TEST(ProseConfig, DescribeListsEverything)
{
    const std::string text = ProseConfig::mostEfficient().describe();
    EXPECT_NE(text.find("MostEfficient"), std::string::npos);
    EXPECT_NE(text.find("16384 PEs"), std::string::npos);
    EXPECT_NE(text.find("32 threads"), std::string::npos);
}

TEST(ProseConfig, TypeCapabilitiesConsistent)
{
    for (const ProseConfig &config :
         { ProseConfig::bestPerf(), ProseConfig::mostEfficient(),
           ProseConfig::homogeneous(), ProseConfig::bestPerfPlus(),
           ProseConfig::homogeneousPlus() }) {
        for (const auto &group : config.groups) {
            switch (group.geometry.type) {
              case ArrayType::M:
                EXPECT_FALSE(group.geometry.hasGelu);
                EXPECT_FALSE(group.geometry.hasExp);
                break;
              case ArrayType::G:
                EXPECT_TRUE(group.geometry.hasGelu);
                break;
              case ArrayType::E:
                EXPECT_TRUE(group.geometry.hasExp);
                break;
            }
        }
    }
}

TEST(ProseConfigDeathTest, MissingTypePanics)
{
    ProseConfig config = ProseConfig::bestPerf();
    config.groups[typeIndex(ArrayType::M)].count = 0; // empty M pool
    EXPECT_DEATH(config.validate(), "every array type");
}

TEST(ProseConfigDeathTest, PoolHoldsItsOwnType)
{
    ProseConfig config = ProseConfig::bestPerf();
    config.groups[typeIndex(ArrayType::M)].geometry =
        ArrayGeometry::gType(64);
    EXPECT_DEATH(config.validate(), "pool M holds a G-type array");
}

TEST(ProseConfigDeathTest, LanesMustCoverLink)
{
    ProseConfig config = ProseConfig::bestPerf();
    config.lanes = LanePartition{ 1, 1, 1 };
    EXPECT_DEATH(config.validate(), "lane partition");
}

} // namespace
} // namespace prose
