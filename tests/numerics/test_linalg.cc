/** @file Tests for Cholesky and ridge regression. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "common/stats.hh"
#include "numerics/linalg.hh"

namespace prose {
namespace {

TEST(Cholesky, FactorOfIdentity)
{
    Matrix eye(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
        eye(i, i) = 1.0f;
    ASSERT_TRUE(choleskyFactor(eye));
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_FLOAT_EQ(eye(i, j), i == j ? 1.0f : 0.0f);
}

TEST(Cholesky, ReconstructsSpdMatrix)
{
    // Build SPD A = B B^T + I and check L L^T == A.
    Rng rng(1);
    Matrix b(5, 5);
    b.fillGaussian(rng, 0.0f, 1.0f);
    Matrix a = matmul(b, transpose(b));
    for (std::size_t i = 0; i < 5; ++i)
        a(i, i) += 1.0f;
    Matrix l = a;
    ASSERT_TRUE(choleskyFactor(l));
    const Matrix rebuilt = matmul(l, transpose(l));
    EXPECT_LT(Matrix::maxAbsDiff(rebuilt, a), 1e-3f);
}

TEST(Cholesky, RejectsIndefinite)
{
    Matrix a(2, 2);
    a(0, 0) = 1.0f;
    a(0, 1) = a(1, 0) = 2.0f;
    a(1, 1) = 1.0f; // eigenvalues 3 and -1
    EXPECT_FALSE(choleskyFactor(a));
}

TEST(Cholesky, SolveRecoversKnownVector)
{
    Rng rng(2);
    Matrix b(6, 6);
    b.fillGaussian(rng, 0.0f, 1.0f);
    Matrix a = matmul(b, transpose(b));
    for (std::size_t i = 0; i < 6; ++i)
        a(i, i) += 2.0f;

    std::vector<double> x_true{ 1, -2, 3, 0.5, -0.25, 4 };
    std::vector<double> rhs(6, 0.0);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j)
            rhs[i] += static_cast<double>(a(i, j)) * x_true[j];

    Matrix l = a;
    ASSERT_TRUE(choleskyFactor(l));
    const auto x = choleskySolve(l, rhs);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-3);
}

TEST(Ridge, RecoversLinearModelWithSmallPenalty)
{
    Rng rng(3);
    const std::size_t n = 200, d = 5;
    Matrix x(n, d);
    x.fillGaussian(rng, 0.0f, 1.0f);
    const std::vector<double> w_true{ 2.0, -1.0, 0.5, 0.0, 3.0 };
    std::vector<double> y(n, 1.5); // intercept 1.5
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < d; ++j)
            y[i] += w_true[j] * x(i, j);

    const RidgeModel model = ridgeFit(x, y, 1e-6);
    for (std::size_t j = 0; j < d; ++j)
        EXPECT_NEAR(model.weights[j], w_true[j], 1e-2);
    EXPECT_NEAR(model.intercept, 1.5, 1e-2);
}

TEST(Ridge, PenaltyShrinksWeights)
{
    Rng rng(4);
    const std::size_t n = 50, d = 3;
    Matrix x(n, d);
    x.fillGaussian(rng, 0.0f, 1.0f);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i)
        y[i] = 4.0 * x(i, 0) + rng.gaussian(0.0, 0.1);

    const RidgeModel weak = ridgeFit(x, y, 0.001);
    const RidgeModel strong = ridgeFit(x, y, 1000.0);
    EXPECT_GT(std::fabs(weak.weights[0]), std::fabs(strong.weights[0]));
    EXPECT_LT(std::fabs(strong.weights[0]), 1.0);
}

TEST(Ridge, PredictRowsMatchesPredict)
{
    Rng rng(5);
    Matrix x(10, 4);
    x.fillGaussian(rng, 0.0f, 1.0f);
    std::vector<double> y(10);
    for (std::size_t i = 0; i < 10; ++i)
        y[i] = x(i, 1) - x(i, 3);
    const RidgeModel model = ridgeFit(x, y, 0.5);

    // Each row's prediction is the model's x . weights + intercept.
    const auto batch = model.predictRows(x);
    ASSERT_EQ(batch.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
        double expected = model.intercept;
        for (std::size_t j = 0; j < 4; ++j)
            expected += model.weights[j] * x(i, j);
        EXPECT_NEAR(batch[i], expected, 1e-9);
    }
}

TEST(Ridge, HandlesMoreFeaturesThanSamples)
{
    // The penalty keeps the normal equations SPD even when d > n.
    Rng rng(6);
    Matrix x(8, 20);
    x.fillGaussian(rng, 0.0f, 1.0f);
    std::vector<double> y(8);
    for (std::size_t i = 0; i < 8; ++i)
        y[i] = x(i, 0);
    const RidgeModel model = ridgeFit(x, y, 1.0);
    EXPECT_EQ(model.weights.size(), 20u);
    // In-sample predictions should correlate strongly with targets.
    EXPECT_GT(pearson(model.predictRows(x), y), 0.9);
}

TEST(Ridge, NoisyDataStillRankCorrelates)
{
    Rng rng(7);
    const std::size_t n = 60, d = 6;
    Matrix x(n, d);
    x.fillGaussian(rng, 0.0f, 1.0f);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i)
        y[i] = 2.0 * x(i, 2) + rng.gaussian(0.0, 0.5);
    const RidgeModel model = ridgeFit(x, y, 1.0);
    EXPECT_GT(spearman(model.predictRows(x), y), 0.8);
}

TEST(RidgeDeathTest, NonPositivePenaltyPanics)
{
    Matrix x(4, 2, 1.0f);
    std::vector<double> y{ 1, 2, 3, 4 };
    EXPECT_DEATH(ridgeFit(x, y, 0.0), "positive penalty");
}

TEST(RidgeDeathTest, PredictWithMisSizedWeightsPanics)
{
    // An unfitted model (no weights) and one fitted on other features
    // must not read past `weights`.
    const Matrix x(2, 3, 1.0f);
    EXPECT_DEATH(RidgeModel{}.predictRows(x), "feature arity");
    RidgeModel fitted;
    fitted.weights = { 1.0, 2.0 };
    EXPECT_DEATH(fitted.predictRows(x), "feature arity");
}

TEST(Ridge, IllScaledFeaturesRecoverWeights)
{
    // Feature scales spanning six orders of magnitude: accumulating the
    // Gram matrix through float storage loses enough precision here
    // that the recovered weights drift visibly; the double-precision
    // accumulation keeps them tight.
    Rng rng(404);
    const std::size_t n = 4000;
    const double scales[3] = { 1e3, 1.0, 1e-3 };
    const double true_w[3] = { 0.5, -2.0, 40.0 };
    Matrix x(n, 3);
    std::vector<double> y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double target = 3.0;
        for (std::size_t j = 0; j < 3; ++j) {
            const double xij = rng.gaussian() * scales[j];
            x(i, j) = static_cast<float>(xij);
            // Build y from the float-rounded feature the fit sees.
            target += true_w[j] * static_cast<double>(x(i, j));
        }
        y[i] = target;
    }
    const RidgeModel model = ridgeFit(x, y, 1e-8);
    ASSERT_EQ(model.weights.size(), 3u);
    for (std::size_t j = 0; j < 3; ++j)
        EXPECT_NEAR(model.weights[j] * scales[j],
                    true_w[j] * scales[j],
                    5e-3 * std::abs(true_w[j]) * scales[j])
            << "feature " << j;
    EXPECT_NEAR(model.intercept, 3.0, 0.05);
}

} // namespace
} // namespace prose
