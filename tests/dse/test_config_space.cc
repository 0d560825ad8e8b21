/** @file Tests for the Table 3 configuration-space enumeration. */

#include <gtest/gtest.h>

#include <set>

#include "dse/config_space.hh"

namespace prose {
namespace {

TEST(ConfigSpace, EveryMixMeetsTheBudgetExactly)
{
    ConfigSpaceSpec spec;
    for (const auto &mix : enumerateMixes(spec))
        EXPECT_EQ(mix.totalPes(), spec.peBudget) << mix.name;
}

TEST(ConfigSpace, EveryMixHasAllThreeTypes)
{
    for (const auto &mix : enumerateMixes(ConfigSpaceSpec{})) {
        for (std::size_t i = 0; i < mix.groups.size(); ++i) {
            EXPECT_EQ(mix.groups[i].geometry.type, kArrayTypes[i]);
            EXPECT_GE(mix.groups[i].count, 1u);
        }
    }
}

TEST(ConfigSpace, CountsRespectTable3Bounds)
{
    ConfigSpaceSpec spec;
    for (const auto &mix : enumerateMixes(spec)) {
        for (const auto &group : mix.groups) {
            if (group.geometry.type == ArrayType::M) {
                EXPECT_EQ(group.geometry.dim, 64u);
                EXPECT_LE(group.count, spec.maxMCount);
            } else if (group.geometry.dim == 32) {
                EXPECT_LE(group.count, spec.maxCount32);
            } else {
                EXPECT_EQ(group.geometry.dim, 16u);
                EXPECT_LE(group.count, spec.maxCount16);
            }
        }
    }
}

TEST(ConfigSpace, SizeComparableToPaper)
{
    // The paper explored 238 configurations after pruning; our
    // enumeration (mixes x the ~10 lane splits the engine sweeps) is in
    // the same regime. The mix count alone should land in the dozens.
    const auto mixes = enumerateMixes(ConfigSpaceSpec{});
    EXPECT_GE(mixes.size(), 40u);
    EXPECT_LE(mixes.size(), 400u);
}

TEST(ConfigSpace, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &mix : enumerateMixes(ConfigSpaceSpec{}))
        EXPECT_TRUE(names.insert(mix.name).second) << mix.name;
}

TEST(ConfigSpace, ContainsThePaperSelections)
{
    // BestPerf (2 M64, 10 G16, 22 E16) and MostEfficient (2 M64, 3 G32,
    // 20 E16) must be reachable points of the space.
    bool best_perf = false, most_efficient = false;
    for (const auto &mix : enumerateMixes(ConfigSpaceSpec{})) {
        if (mix.name == "M64x2-G16x10-E16x22")
            best_perf = true;
        if (mix.name == "M64x2-G32x3-E16x20")
            most_efficient = true;
    }
    EXPECT_TRUE(best_perf);
    EXPECT_TRUE(most_efficient);
}

TEST(ConfigSpace, BudgetSweepChangesSize)
{
    ConfigSpaceSpec small;
    small.peBudget = 8192;
    ConfigSpaceSpec large;
    large.peBudget = 24576;
    EXPECT_FALSE(enumerateMixes(small).empty());
    EXPECT_FALSE(enumerateMixes(large).empty());
}

TEST(ConfigSpace, DefaultSweepKeepsLegacyNames)
{
    // Names carry only the array mix, so explorations and mix-parse
    // round trips stay stable.
    for (const auto &mix : enumerateMixes(ConfigSpaceSpec{})) {
        EXPECT_EQ(mix.name.find("double-buffered"), std::string::npos);
        EXPECT_EQ(mix.name.find("zero-run"), std::string::npos);
        break;
    }
}

TEST(ConfigSpace, PropagatesLinkAndThreads)
{
    ConfigSpaceSpec spec;
    spec.link = LinkSpec::nvlink3At90();
    spec.threads = 16;
    for (const auto &mix : enumerateMixes(spec)) {
        EXPECT_EQ(mix.link.lanes, 12u);
        EXPECT_EQ(mix.threads, 16u);
        break;
    }
}

} // namespace
} // namespace prose
