/** @file Tests for weight initialization. */

#include <gtest/gtest.h>

#include <cmath>

#include "model/weights.hh"

namespace prose {
namespace {

TEST(Weights, ShapesMatchConfig)
{
    const BertConfig config = BertConfig::tiny();
    const BertWeights w = BertWeights::initialize(config, 1);
    EXPECT_EQ(w.tokenEmbedding.rows(), config.vocabSize);
    EXPECT_EQ(w.tokenEmbedding.cols(), config.hidden);
    EXPECT_EQ(w.positionEmbedding.rows(), config.maxSeqLen);
    ASSERT_EQ(w.layers.size(), config.layers);
    EXPECT_EQ(w.layers[0].wq.rows(), config.hidden);
    EXPECT_EQ(w.layers[0].w1.cols(), config.intermediate);
    EXPECT_EQ(w.layers[0].w2.rows(), config.intermediate);
    EXPECT_EQ(w.layers[0].b1.size(), config.intermediate);
}

TEST(Weights, DeterministicFromSeed)
{
    const BertConfig config = BertConfig::tiny();
    const BertWeights a = BertWeights::initialize(config, 42);
    const BertWeights b = BertWeights::initialize(config, 42);
    EXPECT_EQ(Matrix::maxAbsDiff(a.layers[1].wo, b.layers[1].wo), 0.0f);
    EXPECT_EQ(Matrix::maxAbsDiff(a.tokenEmbedding, b.tokenEmbedding),
              0.0f);
}

TEST(Weights, DifferentSeedsDiffer)
{
    const BertConfig config = BertConfig::tiny();
    const BertWeights a = BertWeights::initialize(config, 1);
    const BertWeights b = BertWeights::initialize(config, 2);
    EXPECT_GT(Matrix::maxAbsDiff(a.layers[0].wq, b.layers[0].wq), 0.0f);
}

TEST(Weights, LayerNormInitializedToIdentity)
{
    const BertConfig config = BertConfig::tiny();
    const BertWeights w = BertWeights::initialize(config, 3);
    for (float g : w.layers[0].lnAttnGamma)
        EXPECT_EQ(g, 1.0f);
    for (float b : w.layers[0].lnOutBeta)
        EXPECT_EQ(b, 0.0f);
}

TEST(Weights, InitStddevRoughlyRespected)
{
    const BertConfig config = BertConfig::tiny();
    const BertWeights w = BertWeights::initialize(config, 6);
    double sum_sq = 0.0;
    const Matrix &m = w.layers[0].wq;
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            sum_sq += static_cast<double>(m(i, j)) * m(i, j);
    const double stddev =
        std::sqrt(sum_sq / static_cast<double>(m.size()));
    EXPECT_NEAR(stddev, config.initStddev, 0.005);
}

} // namespace
} // namespace prose
