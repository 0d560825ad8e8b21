/** @file Tests for the masked-LM head and zero-shot scoring. */

#include <gtest/gtest.h>

#include <cmath>

#include "model/mlm_head.hh"
#include "model/tokenizer.hh"

namespace prose {
namespace {

class MlmHeadTest : public ::testing::Test
{
  protected:
    MlmHeadTest() : model_(BertConfig::tiny(), 42), head_(model_) {}
    BertModel model_;
    MlmHead head_;
};

TEST_F(MlmHeadTest, LogProbabilitiesNormalize)
{
    const AminoTokenizer tok;
    const auto tokens = tok.encode("MEYQACDW");
    const auto log_probs = head_.logProbabilities(tokens, 3);
    ASSERT_EQ(log_probs.size(), model_.config().vocabSize);
    double total = 0.0;
    for (double lp : log_probs) {
        EXPECT_LE(lp, 0.0);
        total += std::exp(lp);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(MlmHeadTest, Deterministic)
{
    const AminoTokenizer tok;
    const auto tokens = tok.encode("ACDEFGHIKL");
    const auto a = head_.logProbabilities(tokens, 5);
    const auto b = head_.logProbabilities(tokens, 5);
    EXPECT_EQ(a, b);
}

TEST_F(MlmHeadTest, MaskingMattersForTheDistribution)
{
    // Two different contexts around the same masked position give
    // different distributions (the encoder attends to neighbors).
    const AminoTokenizer tok;
    const auto a =
        head_.logProbabilities(tok.encode("AAAAWAAAA"), 5);
    const auto b =
        head_.logProbabilities(tok.encode("WWWWAWWWW"), 5);
    double diff = 0.0;
    for (std::size_t v = 0; v < a.size(); ++v)
        diff = std::max(diff, std::fabs(a[v] - b[v]));
    EXPECT_GT(diff, 1e-3);
}

TEST_F(MlmHeadTest, ZeroShotScoreAntisymmetricConsistency)
{
    // score(from -> to) at a position equals -(score of the reverse
    // substitution evaluated on the same masked distribution); with
    // the same wild type both read the same distribution, so
    // score(to) - score(to2) = lp(to) - lp(to2).
    const std::string wild = "MEYQACDWKL";
    const double to_w = head_.zeroShotScore(wild, 4, 'W');
    const double to_g = head_.zeroShotScore(wild, 4, 'G');
    const AminoTokenizer tok;
    const auto lps =
        head_.logProbabilities(tok.encode(wild), 5);
    EXPECT_NEAR(to_w - to_g,
                lps[tok.residueId('W')] - lps[tok.residueId('G')],
                1e-9);
}

TEST_F(MlmHeadTest, SelfSubstitutionScoresZero)
{
    const std::string wild = "MEYQACDWKL";
    EXPECT_DOUBLE_EQ(head_.zeroShotScore(wild, 2, wild[2]), 0.0);
}

TEST_F(MlmHeadTest, WorksInAcceleratorNumerics)
{
    const AminoTokenizer tok;
    const auto tokens = tok.encode("ACDEFG");
    const auto fp32 = head_.logProbabilities(tokens, 2,
                                             NumericsMode::Fp32);
    const auto lut = head_.logProbabilities(tokens, 2,
                                            NumericsMode::Bf16Lut);
    // Distributions must agree to bf16 tolerance.
    for (std::size_t v = 0; v < fp32.size(); ++v)
        EXPECT_NEAR(std::exp(fp32[v]), std::exp(lut[v]), 0.05);
}

TEST_F(MlmHeadTest, OutOfRangePanics)
{
    const AminoTokenizer tok;
    const auto tokens = tok.encode("ACD");
    EXPECT_DEATH(head_.logProbabilities(tokens, 99), "out of range");
    EXPECT_DEATH(head_.zeroShotScore("ACD", 3, 'W'), "out of range");
}

} // namespace
} // namespace prose
