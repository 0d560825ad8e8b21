/** @file Tests for the BERT encoder forward pass and its numerics modes. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/thread_pool.hh"
#include "model/bert_model.hh"
#include "model/tokenizer.hh"
#include "numerics/activations.hh"
#include "numerics/float_bits.hh"
#include "numerics/kernels/kernel_dispatch.hh"

namespace prose {
namespace {

std::vector<std::vector<std::uint32_t>>
encodeBatch(const std::vector<std::string> &proteins, std::size_t len)
{
    AminoTokenizer tok;
    std::vector<std::vector<std::uint32_t>> batch;
    for (const auto &p : proteins)
        batch.push_back(tok.encode(p, len));
    return batch;
}

class BertModelTest : public ::testing::Test
{
  protected:
    BertModelTest() : model_(BertConfig::tiny(), 42) {}
    BertModel model_;
};

TEST_F(BertModelTest, OutputShapes)
{
    const auto batch = encodeBatch({ "MEYQACD", "WWWWWWW" }, 16);
    const auto out = model_.forward(batch);
    EXPECT_EQ(out.hidden.rows(), 2u * 16u);
    EXPECT_EQ(out.hidden.cols(), model_.config().hidden);
    EXPECT_EQ(out.pooled.rows(), 2u);
    EXPECT_EQ(out.pooled.cols(), model_.config().hidden);
}

TEST_F(BertModelTest, DeterministicForward)
{
    const auto batch = encodeBatch({ "ACDEFGHIKL" }, 16);
    const auto a = model_.forward(batch);
    const auto b = model_.forward(batch);
    EXPECT_EQ(Matrix::maxAbsDiff(a.hidden, b.hidden), 0.0f);
}

TEST_F(BertModelTest, OutputIsLayerNormalized)
{
    // The encoder ends in a LayerNorm with unit gain/zero bias, so each
    // hidden row has ~zero mean and ~unit variance.
    const auto batch = encodeBatch({ "MEYQ" }, 8);
    const auto out = model_.forward(batch);
    const std::size_t h = model_.config().hidden;
    for (std::size_t r = 0; r < out.hidden.rows(); ++r) {
        double sum = 0.0, sum_sq = 0.0;
        for (std::size_t j = 0; j < h; ++j) {
            sum += out.hidden(r, j);
            sum_sq += static_cast<double>(out.hidden(r, j)) *
                      out.hidden(r, j);
        }
        EXPECT_NEAR(sum / h, 0.0, 1e-3);
        EXPECT_NEAR(sum_sq / h, 1.0, 1e-2);
    }
}

TEST_F(BertModelTest, DifferentSequencesGiveDifferentOutputs)
{
    const auto out = model_.forward(
        encodeBatch({ "AAAAAAAA", "WWWWWWWW" }, 12));
    float diff = 0.0f;
    for (std::size_t j = 0; j < model_.config().hidden; ++j)
        diff = std::max(diff, std::fabs(out.pooled(0, j) -
                                        out.pooled(1, j)));
    EXPECT_GT(diff, 0.01f);
}

TEST_F(BertModelTest, PooledValuesInTanhRange)
{
    const auto out = model_.forward(encodeBatch({ "MEYQACD" }, 12));
    for (std::size_t j = 0; j < model_.config().hidden; ++j) {
        EXPECT_GE(out.pooled(0, j), -1.0f);
        EXPECT_LE(out.pooled(0, j), 1.0f);
    }
}

TEST_F(BertModelTest, Bf16CloseToFp32)
{
    const auto batch = encodeBatch({ "ACDEFGHIKLMNPQRSTVWY" }, 24);
    const auto fp32 = model_.forward(batch, NumericsMode::Fp32);
    const auto lut = model_.forward(batch, NumericsMode::Bf16Lut);
    // LayerNorm keeps activations ~N(0,1); bf16 error accumulates but
    // must stay small relative to that scale.
    EXPECT_LT(Matrix::maxAbsDiff(fp32.hidden, lut.hidden), 0.25f);
    EXPECT_GT(Matrix::maxAbsDiff(fp32.hidden, lut.hidden), 0.0f);
}

TEST_F(BertModelTest, LutModeCloseToBf16)
{
    // The full accelerator numerics (LUT GELU/Exp) track the fp32
    // reference closely — the paper's "preserve all 16 bits"
    // requirement — in the pooled output as well as the hidden states.
    const auto batch = encodeBatch({ "MEYQACDWKLMN" }, 16);
    const auto fp32 = model_.forward(batch, NumericsMode::Fp32);
    const auto lut = model_.forward(batch, NumericsMode::Bf16Lut);
    EXPECT_LT(Matrix::maxAbsDiff(fp32.hidden, lut.hidden), 0.25f);
    EXPECT_LT(Matrix::maxAbsDiff(fp32.pooled, lut.pooled), 0.25f);
}

TEST_F(BertModelTest, TraceMatchesSynthesizer)
{
    // The instrumented forward must emit exactly the op stream the
    // shape-level synthesizer predicts — this is what lets the perf
    // simulator run from synthetic traces.
    const auto batch = encodeBatch({ "MEYQACD", "ACDEFGH", "WYWYWYW" },
                                   16);
    OpTrace traced;
    model_.forward(batch, NumericsMode::Fp32, &traced);

    const BertShape shape = model_.config().shape(3, 16);
    const OpTrace synthetic = synthesizeBertTrace(shape);

    ASSERT_EQ(traced.size(), synthetic.size());
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const Op &a = traced.at(i);
        const Op &b = synthetic.at(i);
        EXPECT_EQ(a.kind, b.kind) << "op " << i << ": " << a.describe()
                                  << " vs " << b.describe();
        EXPECT_EQ(a.sublayer, b.sublayer) << "op " << i;
        EXPECT_EQ(a.layer, b.layer) << "op " << i;
        EXPECT_EQ(a.batch, b.batch) << "op " << i;
        EXPECT_EQ(a.m, b.m) << "op " << i;
        EXPECT_EQ(a.k, b.k) << "op " << i;
        EXPECT_EQ(a.n, b.n) << "op " << i;
        EXPECT_EQ(a.broadcast, b.broadcast) << "op " << i;
    }
}

TEST_F(BertModelTest, FeatureExtractionIgnoresPadding)
{
    // Same protein, different padding -> identical mean-pooled features
    // is NOT expected (attention sees PAD), but the pooling itself must
    // exclude PAD rows: compare against manual mean over non-PAD rows.
    AminoTokenizer tok;
    const std::string protein = "MEYQAC";
    const auto tokens = tok.encode(protein, 12);
    const Matrix features = model_.extractFeatures({ tokens });
    const auto out = model_.forward({ tokens });

    const std::size_t h = model_.config().hidden;
    std::vector<double> manual(h, 0.0);
    std::size_t counted = 0;
    for (std::size_t t = 0; t < tokens.size(); ++t) {
        if (tokens[t] == kPadToken)
            continue;
        ++counted;
        for (std::size_t j = 0; j < h; ++j)
            manual[j] += out.hidden(t, j);
    }
    for (std::size_t j = 0; j < h; ++j)
        EXPECT_NEAR(features(0, j), manual[j] / counted, 1e-5);
}

TEST_F(BertModelTest, PaddingMaskMakesOutputsPaddingInvariant)
{
    // With PAD keys masked out of attention, the hidden states of the
    // real tokens must not depend on how much padding follows them.
    AminoTokenizer tok;
    const std::string protein = "MEYQACDWKL";
    const auto short_pad = tok.encode(protein, 14);
    const auto long_pad = tok.encode(protein, 24);
    const auto out_short = model_.forward({ short_pad });
    const auto out_long = model_.forward({ long_pad });

    const std::size_t h = model_.config().hidden;
    float worst = 0.0f;
    for (std::size_t t = 0; t < 12; ++t) // CLS + 10 residues + SEP
        for (std::size_t j = 0; j < h; ++j)
            worst = std::max(worst,
                             std::fabs(out_short.hidden(t, j) -
                                       out_long.hidden(t, j)));
    EXPECT_LT(worst, 1e-5f);
}

TEST_F(BertModelTest, PaddingMaskAppliesInAcceleratorNumerics)
{
    // The bf16+LUT path masks through the Exp LUT's saturate path;
    // padding invariance must hold there too (bf16 tolerance).
    AminoTokenizer tok;
    const std::string protein = "MEYQACDWKL";
    const auto a = model_.forward({ tok.encode(protein, 14) },
                                  NumericsMode::Bf16Lut);
    const auto b = model_.forward({ tok.encode(protein, 20) },
                                  NumericsMode::Bf16Lut);
    const std::size_t h = model_.config().hidden;
    float worst = 0.0f;
    for (std::size_t t = 0; t < 12; ++t)
        for (std::size_t j = 0; j < h; ++j)
            worst = std::max(worst, std::fabs(a.hidden(t, j) -
                                              b.hidden(t, j)));
    EXPECT_LT(worst, 0.05f);
}

TEST(BertModelDeathTest, RaggedBatchPanics)
{
    BertModel model(BertConfig::tiny(), 7);
    AminoTokenizer tok;
    const std::vector<std::vector<std::uint32_t>> ragged{
        tok.encode("ACD", 8), tok.encode("ACD", 10)
    };
    EXPECT_DEATH(model.forward(ragged), "ragged");
}

TEST(BertModelDeathTest, EmptyBatchPanics)
{
    BertModel model(BertConfig::tiny(), 7);
    EXPECT_DEATH(model.forward({}), "empty batch");
}

TEST(BertModelDeathTest, AllPadSequencePanicsInBf16Lut)
{
    // Every key of an all-PAD sequence is masked, so each Bf16Lut
    // softmax row sums to zero; the host divide must say so rather than
    // scale by 1/0. Fp32's max-subtracted softmax stays finite.
    BertModel model(BertConfig::tiny(), 7);
    const std::vector<std::vector<std::uint32_t>> pads{
        std::vector<std::uint32_t>(8, kPadToken)
    };
    const BertModel::Output fp32 = model.forward(pads, NumericsMode::Fp32);
    for (std::size_t j = 0; j < fp32.hidden.cols(); ++j)
        ASSERT_TRUE(std::isfinite(fp32.hidden(0, j)));
    // The fp32 forward started the pool's workers; the threadsafe death
    // test style (tests/CMakeLists.txt) re-executes the binary for the
    // child, so the child's pooled forward starts its own workers.
    EXPECT_DEATH(model.forward(pads, NumericsMode::Bf16Lut),
                 "summed to zero");
}

TEST(BertModelPooled, ForwardBitIdenticalSerialVsPooled)
{
    ThreadPool pool(4);
    const BertModel model(BertConfig::tiny(), 11);
    const auto batch = encodeBatch({ "ACDEFGHIKL", "MNPQRSTVWY" }, 16);
    for (const NumericsMode mode :
         { NumericsMode::Fp32, NumericsMode::Bf16Lut }) {
        BertModel::Output serial;
        {
            ThreadPool::SerialGuard guard;
            serial = model.forward(batch, mode);
        }
        ThreadPool::setGlobalOverride(&pool);
        const auto pooled = model.forward(batch, mode);
        ThreadPool::setGlobalOverride(nullptr);
        EXPECT_EQ(Matrix::maxAbsDiff(serial.hidden, pooled.hidden), 0.0f)
            << "mode " << static_cast<int>(mode);
        EXPECT_EQ(Matrix::maxAbsDiff(serial.pooled, pooled.pooled), 0.0f)
            << "mode " << static_cast<int>(mode);
    }
}

/** Bitwise equality of two same-shape matrices (so -0 != +0). */
bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.sameShape(b) && bitsEqual(a.data(), b.data(), a.size());
}

/** GELU and Exp tables over the given exponent windows. */
void
setLutWindows(BertModel &model, int gelu_lo, int gelu_hi, int exp_lo,
              int exp_hi)
{
    model.setSpecialFunctionLuts(
        TwoLevelLut("GELU", &geluTanh, gelu_lo, gelu_hi,
                    TwoLevelLut::BoundaryPolicy::GeluLike),
        TwoLevelLut("Exp", &expRef, exp_lo, exp_hi,
                    TwoLevelLut::BoundaryPolicy::ExpLike));
}

TEST(BertModelLuts, OwnPaperWindowTablesReproduceSharedTables)
{
    const auto batch = encodeBatch({ "MEYQACDWKLMN", "ACDEFGHIKLMN" }, 16);
    const BertModel shared(BertConfig::tiny(), 5);
    BertModel own(BertConfig::tiny(), 5);
    setLutWindows(own, -4, 3, -6, 5);
    const auto want = shared.forward(batch, NumericsMode::Bf16Lut);
    const auto got = own.forward(batch, NumericsMode::Bf16Lut);
    EXPECT_TRUE(sameBits(want.hidden, got.hidden));
    EXPECT_TRUE(sameBits(want.pooled, got.pooled));
}

TEST(BertModelLuts, NarrowWindowChangesOnlyTheLutMode)
{
    const auto batch = encodeBatch({ "MEYQACDWKLMN", "ACDEFGHIKLMN" }, 16);
    const BertModel shared(BertConfig::tiny(), 5);
    BertModel narrow(BertConfig::tiny(), 5);
    setLutWindows(narrow, -1, 0, -1, 0);
    EXPECT_FALSE(
        sameBits(shared.forward(batch, NumericsMode::Bf16Lut).hidden,
                 narrow.forward(batch, NumericsMode::Bf16Lut).hidden));
    EXPECT_TRUE(sameBits(shared.forward(batch, NumericsMode::Fp32).hidden,
                         narrow.forward(batch, NumericsMode::Fp32).hidden));
}

TEST(BertModelSimd, BertBaseLayerBf16LutBitIdenticalScalarVsActiveTier)
{
    // One encoder layer at BERT-base width (H=768, 12 heads, FFN 3072)
    // over 64 tokens: every GEMM shape of the real model, with real
    // activations feeding the bf16 tile kernel's fused-MAC gate. The
    // active tier must reproduce the scalar reference bit for bit.
    BertConfig config = BertConfig::proteinBertBase();
    config.layers = 1;
    config.maxSeqLen = 64;
    const BertModel model(config, 2022);
    const auto batch =
        encodeBatch({ "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLS"
                      "GAEKAVQVKVKAL" },
                    64);
    const kernels::SimdTier original = kernels::activeSimdTier();
    kernels::setActiveSimdTier(kernels::SimdTier::Scalar);
    const auto want = model.forward(batch, NumericsMode::Bf16Lut);
    kernels::setActiveSimdTier(original);
    const auto got = model.forward(batch, NumericsMode::Bf16Lut);
    EXPECT_TRUE(sameBits(got.hidden, want.hidden))
        << "tier " << kernels::toString(original);
    EXPECT_TRUE(sameBits(got.pooled, want.pooled))
        << "tier " << kernels::toString(original);
}

} // namespace
} // namespace prose
