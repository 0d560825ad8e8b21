/** @file Tests for arrival generation. */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "serve/arrival.hh"

namespace prose {
namespace {

ArrivalSpec
poisson(std::uint64_t count = 2000, double rate = 1000.0)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Poisson;
    spec.seed = 42;
    spec.ratePerSecond = rate;
    spec.count = count;
    return spec;
}

TEST(Arrivals, PoissonStreamShape)
{
    const auto requests = generateArrivals(poisson(), 0.05);
    ASSERT_EQ(requests.size(), 2000u);
    double prev = -1.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(requests[i].id, i);
        EXPECT_GT(requests[i].arrivalSeconds, prev);
        EXPECT_EQ(requests[i].state, RequestState::Queued);
        EXPECT_DOUBLE_EQ(requests[i].deadlineSeconds,
                         requests[i].arrivalSeconds + 0.05);
        prev = requests[i].arrivalSeconds;
    }
    // 2000 arrivals at 1000/s should take about 2 seconds.
    EXPECT_NEAR(requests.back().arrivalSeconds, 2.0, 0.4);
}

TEST(Arrivals, SameSeedIsBitIdentical)
{
    const auto a = generateArrivals(poisson(), 0.05);
    const auto b = generateArrivals(poisson(), 0.05);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrivalSeconds, b[i].arrivalSeconds);
        EXPECT_EQ(a[i].residues, b[i].residues);
    }
    ArrivalSpec other = poisson();
    other.seed = 43;
    const auto c = generateArrivals(other, 0.05);
    EXPECT_NE(a[10].arrivalSeconds, c[10].arrivalSeconds);
}

TEST(Arrivals, LengthsStayInBounds)
{
    ArrivalSpec spec = poisson(500);
    spec.minResidues = 60;
    spec.maxResidues = 300;
    bool saw_spread = false;
    const auto requests = generateArrivals(spec, 0.05);
    for (const Request &request : requests) {
        EXPECT_GE(request.residues, 60u);
        EXPECT_LE(request.residues, 300u);
        if (request.residues != requests.front().residues)
            saw_spread = true;
    }
    EXPECT_TRUE(saw_spread);
}

TEST(Arrivals, BurstyKeepsLongRunMeanRate)
{
    ArrivalSpec spec = poisson(20000);
    spec.kind = ArrivalKind::Bursty;
    const auto requests = generateArrivals(spec, 0.05);
    const double span = requests.back().arrivalSeconds;
    const double mean_rate = static_cast<double>(requests.size()) / span;
    // The burst multiplier reshapes the process but the thinning
    // normalization keeps the long-run mean at ratePerSecond.
    EXPECT_NEAR(mean_rate, 1000.0, 60.0);
}

TEST(ArrivalsDeathTest, SpecValidation)
{
    ArrivalSpec negative = poisson();
    negative.ratePerSecond = -5.0;
    EXPECT_EXIT(negative.validate(), testing::ExitedWithCode(1),
                "rate must be a positive");
    ArrivalSpec nan_rate = poisson();
    nan_rate.ratePerSecond = std::nan("");
    EXPECT_EXIT(nan_rate.validate(), testing::ExitedWithCode(1),
                "rate must be a positive");
    ArrivalSpec none = poisson(0);
    EXPECT_EXIT(none.validate(), testing::ExitedWithCode(1),
                "zero requests");
    ArrivalSpec zero_len = poisson();
    zero_len.minResidues = 0;
    EXPECT_EXIT(zero_len.validate(), testing::ExitedWithCode(1),
                "zero-length");
    ArrivalSpec inverted = poisson();
    inverted.minResidues = 100;
    inverted.maxResidues = 50;
    EXPECT_EXIT(inverted.validate(), testing::ExitedWithCode(1),
                "bounds inverted");
    ArrivalSpec dead_burst = poisson();
    dead_burst.kind = ArrivalKind::Bursty;
    dead_burst.burstPeriodSeconds = 0.0;
    EXPECT_EXIT(dead_burst.validate(), testing::ExitedWithCode(1),
                "burst period must be positive");
}

TEST(ArrivalsDeathTest, DefaultSloMustBePositive)
{
    EXPECT_EXIT(generateArrivals(poisson(), 0.0),
                testing::ExitedWithCode(1),
                "default SLO must be positive");
    EXPECT_EXIT(generateArrivals(poisson(),
                                 std::numeric_limits<double>::infinity()),
                testing::ExitedWithCode(1),
                "default SLO must be positive");
}

} // namespace
} // namespace prose
