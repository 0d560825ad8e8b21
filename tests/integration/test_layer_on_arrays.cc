/** @file The strongest functional check in the repo: one full Protein
 *  BERT encoder layer executed ENTIRELY on the cycle-stepped systolic
 *  arrays (Q/K/V/output projections as Dataflow 1, attention as
 *  Dataflow 3, the feed-forward as Dataflow 2 + Dataflow 1) with host
 *  LayerNorms, compared against the model's own layer-wise forward. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "model/bert_model.hh"
#include "systolic/functional_sim.hh"

namespace prose {
namespace {

/** Columns [head * dk, (head + 1) * dk) of x: one head's slice. */
Matrix
headSlice(const Matrix &x, std::size_t head, std::size_t dk)
{
    Matrix out(x.rows(), dk);
    for (std::size_t i = 0; i < x.rows(); ++i)
        for (std::size_t j = 0; j < dk; ++j)
            out(i, j) = x(i, head * dk + j);
    return out;
}

/** The per-head outputs side by side, head 0 leftmost. */
Matrix
concatHeads(const std::vector<Matrix> &heads)
{
    const std::size_t dk = heads.front().cols();
    Matrix out(heads.front().rows(), heads.size() * dk);
    for (std::size_t h = 0; h < heads.size(); ++h)
        for (std::size_t i = 0; i < out.rows(); ++i)
            for (std::size_t j = 0; j < dk; ++j)
                out(i, h * dk + j) = heads[h](i, j);
    return out;
}

/** Broadcast a bias vector into a 1 x n row matrix. */
Matrix
biasRow(const std::vector<float> &bias)
{
    Matrix row(1, bias.size());
    for (std::size_t j = 0; j < bias.size(); ++j)
        row(0, j) = bias[j];
    return row;
}

TEST(LayerOnArrays, EncoderLayerMatchesModelWithinTolerance)
{
    // Small but structurally complete layer: hidden 32, 2 heads, 12
    // tokens, intermediate 128.
    BertConfig config = BertConfig::tiny();
    config.hidden = 32;
    config.heads = 2;
    config.intermediate = 128;
    config.layers = 1;
    config.maxSeqLen = 64;
    const BertModel model(config, 2024);
    const LayerWeights &lw = model.weights().layers[0];

    const std::uint64_t seq_len = 12;
    const std::uint64_t dk = config.headDim();
    Rng rng(55);
    Matrix x(seq_len, config.hidden);
    x.fillGaussian(rng, 0.0f, 1.0f);
    x.quantizeBf16InPlace(); // inputs arrive as bf16, like embeddings

    // --- Reference: the model's own layer in full accelerator mode ---
    const Matrix expected = model.runEncoderLayer(
        x, 0, 1, seq_len, NumericsMode::Bf16Lut);

    // --- Accelerator: every dataflow on the cycle-stepped arrays ----
    FunctionalSimulator sim(ArrayGeometry::mType(8),
                            ArrayGeometry::gType(8),
                            ArrayGeometry::eType(8));

    // Dataflow 1 x3: Q/K/V projections with broadcast bias.
    const Matrix bq = biasRow(lw.bq), bk = biasRow(lw.bk),
                 bv = biasRow(lw.bv);
    const Matrix q = sim.dataflow1(x, lw.wq, 1.0f, &bq);
    const Matrix k = sim.dataflow1(x, lw.wk, 1.0f, &bk);
    const Matrix v = sim.dataflow1(x, lw.wv, 1.0f, &bv);

    // Dataflow 3 per head, concatenated back.
    std::vector<Matrix> qs, ks, vs;
    for (std::size_t head = 0; head < config.heads; ++head) {
        qs.push_back(headSlice(q, head, dk));
        ks.push_back(headSlice(k, head, dk));
        vs.push_back(headSlice(v, head, dk));
    }
    const float inv_scale = 1.0f / std::sqrt(static_cast<float>(dk));
    const std::vector<Matrix> heads =
        sim.dataflow3(qs, ks, vs, inv_scale);
    const Matrix context = concatHeads(heads);

    // Dataflow 1: attention output projection + bias, then a residual
    // MulAdd (modeled here as a second ADD pass via dataflow1 on an
    // identity-free path: add the residual on the host side like the
    // second MulAdd of the fused task).
    const Matrix bo = biasRow(lw.bo);
    Matrix attn = sim.dataflow1(context, lw.wo, 1.0f, &bo);
    for (std::size_t i = 0; i < attn.rows(); ++i)
        for (std::size_t j = 0; j < attn.cols(); ++j)
            attn(i, j) = quantizeBf16(attn(i, j) + x(i, j));

    // Host LayerNorm (an Other-class op in the paper's mapping).
    Matrix normed = layerNorm(attn, lw.lnAttnGamma, lw.lnAttnBeta,
                              config.layerNormEps);
    normed.quantizeBf16InPlace();

    // Dataflow 2: intermediate projection + bias + GELU on G-Type.
    const Matrix b1 = biasRow(lw.b1);
    const Matrix inter = sim.dataflow2(normed, lw.w1, 1.0f, &b1);

    // Dataflow 1: output projection + bias; residual; LayerNorm.
    const Matrix b2 = biasRow(lw.b2);
    Matrix out = sim.dataflow1(inter, lw.w2, 1.0f, &b2);
    for (std::size_t i = 0; i < out.rows(); ++i)
        for (std::size_t j = 0; j < out.cols(); ++j)
            out(i, j) = quantizeBf16(out(i, j) + normed(i, j));
    Matrix result = layerNorm(out, lw.lnOutGamma, lw.lnOutBeta,
                              config.layerNormEps);
    result.quantizeBf16InPlace();

    // --- Compare ------------------------------------------------------
    // The two paths differ only in rounding details (the model
    // round-to-nearests after each op; the arrays' OUTPUT port
    // truncates), so agreement must be tight on LayerNorm-scaled
    // activations but not bit-exact.
    ASSERT_TRUE(result.sameShape(expected));
    EXPECT_LT(Matrix::maxAbsDiff(result, expected), 0.12f);

    // Cosine similarity as a global agreement check.
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::size_t i = 0; i < result.rows(); ++i) {
        for (std::size_t j = 0; j < result.cols(); ++j) {
            dot += static_cast<double>(result(i, j)) * expected(i, j);
            na += static_cast<double>(result(i, j)) * result(i, j);
            nb += static_cast<double>(expected(i, j)) * expected(i, j);
        }
    }
    EXPECT_GT(dot / std::sqrt(na * nb), 0.999);

    // And the arrays did real work.
    EXPECT_GT(sim.macCount(), 0u);
    EXPECT_GT(sim.matmulCycles(), 0u);
}

} // namespace
} // namespace prose
