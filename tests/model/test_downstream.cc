/** @file Tests for the downstream task heads. */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "model/downstream.hh"

namespace prose {
namespace {

TEST(LogisticHead, SeparatesLinearlySeparableData)
{
    Rng rng(2);
    Matrix x(200, 3);
    std::vector<int> labels(200);
    for (std::size_t i = 0; i < 200; ++i) {
        const int label = static_cast<int>(i % 2);
        labels[i] = label;
        // Two well-separated Gaussian blobs.
        for (std::size_t j = 0; j < 3; ++j)
            x(i, j) = static_cast<float>(
                rng.gaussian(label ? 2.0 : -2.0, 0.5));
    }
    LogisticHead head;
    head.fit(x, labels);
    EXPECT_GT(head.accuracy(x, labels), 0.98);
}

TEST(LogisticHead, ProbabilitiesInUnitInterval)
{
    Rng rng(3);
    Matrix x(60, 2);
    std::vector<int> labels(60);
    for (std::size_t i = 0; i < 60; ++i) {
        labels[i] = static_cast<int>(rng.below(2));
        x(i, 0) = static_cast<float>(rng.gaussian(labels[i], 1.0));
        x(i, 1) = static_cast<float>(rng.gaussian());
    }
    LogisticHead head;
    head.fit(x, labels);
    for (double p : head.predictProbability(x)) {
        EXPECT_GT(p, 0.0);
        EXPECT_LT(p, 1.0);
    }
}

TEST(LogisticHead, NoisyOverlapGivesIntermediateAccuracy)
{
    Rng rng(4);
    Matrix x(400, 2);
    std::vector<int> labels(400);
    for (std::size_t i = 0; i < 400; ++i) {
        labels[i] = static_cast<int>(i % 2);
        // Overlapping blobs: Bayes accuracy ~69% at separation 1 sigma.
        x(i, 0) = static_cast<float>(
            rng.gaussian(labels[i] ? 0.5 : -0.5, 1.0));
        x(i, 1) = static_cast<float>(rng.gaussian());
    }
    LogisticHead head;
    head.fit(x, labels);
    const double acc = head.accuracy(x, labels);
    EXPECT_GT(acc, 0.6);
    EXPECT_LT(acc, 0.85);
}

TEST(LogisticHead, ConstantFeatureHandled)
{
    Rng rng(5);
    Matrix x(50, 2);
    std::vector<int> labels(50);
    for (std::size_t i = 0; i < 50; ++i) {
        labels[i] = static_cast<int>(i % 2);
        x(i, 0) = static_cast<float>(rng.gaussian(labels[i] * 4.0, 0.5));
        x(i, 1) = 7.0f; // constant column must not produce NaNs
    }
    LogisticHead head;
    head.fit(x, labels);
    EXPECT_GT(head.accuracy(x, labels), 0.95);
}

TEST(LogisticHeadDeathTest, BadLabelsPanic)
{
    Matrix x(4, 1, 1.0f);
    LogisticHead head;
    EXPECT_DEATH(head.fit(x, { 0, 1, 2, 0 }), "0/1");
}

TEST(LogisticHeadDeathTest, PredictBeforeFitPanics)
{
    LogisticHead head;
    Matrix x(1, 1, 0.0f);
    EXPECT_DEATH(head.predictProbability(x), "before fit");
}

} // namespace
} // namespace prose
