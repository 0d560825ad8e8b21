/** @file Tests for descriptive statistics and rank correlation. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "common/stats.hh"

namespace prose {
namespace {

TEST(Stats, MeanOfConstants)
{
    EXPECT_DOUBLE_EQ(mean({ 4.0, 4.0, 4.0 }), 4.0);
}

TEST(Stats, MeanSimple)
{
    EXPECT_DOUBLE_EQ(mean({ 1.0, 2.0, 3.0, 4.0 }), 2.5);
}

TEST(Stats, MinMax)
{
    const std::vector<double> xs{ 3.0, -1.0, 7.5, 2.0 };
    EXPECT_DOUBLE_EQ(minOf(xs), -1.0);
    EXPECT_DOUBLE_EQ(maxOf(xs), 7.5);
}

TEST(Stats, PercentileMedianOdd)
{
    EXPECT_DOUBLE_EQ(percentile({ 5.0, 1.0, 3.0 }, 50.0), 3.0);
}

TEST(Stats, PercentileInterpolates)
{
    EXPECT_DOUBLE_EQ(percentile({ 0.0, 10.0 }, 25.0), 2.5);
}

TEST(Stats, PercentileExtremes)
{
    const std::vector<double> xs{ 2.0, 9.0, 4.0 };
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 2.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 9.0);
}

TEST(Stats, PearsonPerfectPositive)
{
    EXPECT_NEAR(pearson({ 1, 2, 3, 4 }, { 2, 4, 6, 8 }), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectNegative)
{
    EXPECT_NEAR(pearson({ 1, 2, 3, 4 }, { 8, 6, 4, 2 }), -1.0, 1e-12);
}

TEST(Stats, PearsonUncorrelatedNearZero)
{
    Rng rng(99);
    std::vector<double> xs, ys;
    for (int i = 0; i < 5000; ++i) {
        xs.push_back(rng.gaussian());
        ys.push_back(rng.gaussian());
    }
    EXPECT_NEAR(pearson(xs, ys), 0.0, 0.05);
}

TEST(Stats, PearsonDegenerateSeriesIsZero)
{
    EXPECT_DOUBLE_EQ(pearson({ 1, 1, 1 }, { 1, 2, 3 }), 0.0);
}

TEST(Stats, AverageRanksNoTies)
{
    const auto ranks = averageRanks({ 30.0, 10.0, 20.0 });
    EXPECT_DOUBLE_EQ(ranks[0], 3.0);
    EXPECT_DOUBLE_EQ(ranks[1], 1.0);
    EXPECT_DOUBLE_EQ(ranks[2], 2.0);
}

TEST(Stats, AverageRanksTiesShareMean)
{
    const auto ranks = averageRanks({ 5.0, 5.0, 1.0 });
    EXPECT_DOUBLE_EQ(ranks[0], 2.5);
    EXPECT_DOUBLE_EQ(ranks[1], 2.5);
    EXPECT_DOUBLE_EQ(ranks[2], 1.0);
}

TEST(Stats, SpearmanMonotonicNonlinearIsOne)
{
    // Spearman sees through monotone nonlinearity; Pearson does not.
    std::vector<double> xs, ys;
    for (int i = 1; i <= 20; ++i) {
        xs.push_back(i);
        ys.push_back(std::exp(0.5 * i));
    }
    EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
    EXPECT_LT(pearson(xs, ys), 0.9);
}

TEST(Stats, SpearmanAntitone)
{
    EXPECT_NEAR(spearman({ 1, 2, 3, 4, 5 }, { 10, 8, 6, 4, 2 }), -1.0,
                1e-12);
}

TEST(Stats, SpearmanInvariantToMonotoneTransform)
{
    Rng rng(123);
    std::vector<double> xs, ys;
    for (int i = 0; i < 100; ++i) {
        const double v = rng.gaussian();
        xs.push_back(v);
        ys.push_back(v + 0.5 * rng.gaussian());
    }
    std::vector<double> ys_cubed;
    for (double y : ys)
        ys_cubed.push_back(y * y * y);
    EXPECT_NEAR(spearman(xs, ys), spearman(xs, ys_cubed), 1e-12);
}

} // namespace
} // namespace prose
