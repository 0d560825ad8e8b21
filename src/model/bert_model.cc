#include "bert_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "numerics/activations.hh"
#include "numerics/host_kernels.hh"
#include "numerics/kernels/kernel_dispatch.hh"
#include "tokenizer.hh"

namespace prose {

namespace {

/**
 * Score written into masked (PAD-key) attention positions. Large
 * enough that exp() is exactly 0 in fp32 and saturates the Exp LUT's
 * above-window negative path to 0 in hardware.
 */
constexpr float kMaskScore = -1e9f;

/** c(i,j) = a(i,j) + bias[j] (row-broadcast bias add). */
Matrix
addBias(const Matrix &a, const std::vector<float> &bias)
{
    PROSE_ASSERT(bias.size() == a.cols(), "bias arity mismatch");
    Matrix c(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const float *arow = a.row(i);
        float *crow = c.row(i);
        for (std::size_t j = 0; j < a.cols(); ++j)
            crow[j] = arow[j] + bias[j];
    }
    return c;
}

} // namespace

BertModel::BertModel(const BertConfig &config, std::uint64_t seed)
    : BertModel(config, BertWeights::initialize(config, seed))
{
}

BertModel::BertModel(const BertConfig &config, BertWeights weights)
    : config_(config), weights_(std::move(weights))
{
    config_.validate();
    PROSE_ASSERT(weights_.layers.size() == config_.layers,
                 "weights/config layer-count mismatch");
    buildWeightCache();
}

void
BertModel::setSpecialFunctionLuts(TwoLevelLut gelu, TwoLevelLut exp)
{
    customGelu_ = std::move(gelu);
    customExp_ = std::move(exp);
}

void
BertModel::buildWeightCache()
{
    bf16Weights_.reserve(weights_.layers.size());
    for (const LayerWeights &lw : weights_.layers)
        bf16Weights_.push_back({ QuantizedOperand(lw.wq),
                                 QuantizedOperand(lw.wk),
                                 QuantizedOperand(lw.wv),
                                 QuantizedOperand(lw.wo),
                                 QuantizedOperand(lw.w1),
                                 QuantizedOperand(lw.w2) });
    poolerWBf16_ = QuantizedOperand(weights_.poolerW);
}

Matrix
BertModel::modalMatmul(const Matrix &a, const Matrix &b,
                       NumericsMode mode) const
{
    if (mode == NumericsMode::Fp32)
        return matmul(a, b);
    return matmulBf16(a, b);
}

Matrix
BertModel::modalMatmul(const Matrix &a, const Matrix &w,
                       const QuantizedOperand &wq, NumericsMode mode) const
{
    if (mode == NumericsMode::Fp32)
        return matmul(a, w);
    return matmulBf16(a, wq);
}

void
BertModel::modalQuantize(Matrix &m, NumericsMode mode) const
{
    if (mode != NumericsMode::Fp32)
        m.quantizeBf16InPlace();
}

Matrix
BertModel::embed(const std::vector<std::vector<std::uint32_t>> &tokens,
                 NumericsMode mode, OpTrace *trace) const
{
    const std::uint64_t batch = tokens.size();
    PROSE_ASSERT(batch > 0, "empty batch");
    const std::uint64_t seq_len = tokens[0].size();
    const std::uint64_t h = config_.hidden;
    PROSE_ASSERT(seq_len > 0 && seq_len <= config_.maxSeqLen,
                 "bad sequence length ", seq_len);

    Matrix x(batch * seq_len, h);
    for (std::uint64_t b = 0; b < batch; ++b) {
        PROSE_ASSERT(tokens[b].size() == seq_len,
                     "ragged batch: all sequences must share a length");
        for (std::uint64_t t = 0; t < seq_len; ++t) {
            const std::uint32_t id = tokens[b][t];
            PROSE_ASSERT(id < kVocabSize, "token id out of vocab");
            float *row = x.row(b * seq_len + t);
            const float *tok = weights_.tokenEmbedding.row(id);
            const float *pos = weights_.positionEmbedding.row(t);
            for (std::uint64_t j = 0; j < h; ++j)
                row[j] = tok[j] + pos[j];
        }
    }
    x = layerNorm(x, weights_.lnEmbGamma, weights_.lnEmbBeta,
                  kLayerNormEps);
    modalQuantize(x, mode);
    if (trace)
        recordEmbedding(*trace, config_.shape(batch, seq_len));
    return x;
}

Matrix
BertModel::encoderLayer(const Matrix &x, const LayerWeights &lw, int layer,
                        std::uint64_t batch, std::uint64_t seq_len,
                        NumericsMode mode, OpTrace *trace,
                        const std::vector<std::uint8_t> *pad_mask) const
{
    const std::uint64_t h = config_.hidden;
    const std::uint64_t heads = config_.heads;
    const std::uint64_t dk = config_.headDim();
    const std::uint64_t bl = batch * seq_len;

    PROSE_ASSERT(layer >= 0 &&
                     static_cast<std::size_t>(layer) < bf16Weights_.size(),
                 "encoder layer index outside the weight cache");
    const QuantizedLayerWeights &qw =
        bf16Weights_[static_cast<std::size_t>(layer)];
    if (trace)
        recordEncoderLayer(*trace, config_.shape(batch, seq_len), layer);

    // --- Attention sublayer -------------------------------------------
    // Q/K/V projections: MatMul + bias MulAdd (Dataflow 1) + head split.
    Matrix qkv[3];
    const Matrix *proj_w[3] = { &lw.wq, &lw.wk, &lw.wv };
    const QuantizedOperand *proj_wq[3] = { &qw.wq, &qw.wk, &qw.wv };
    const std::vector<float> *proj_b[3] = { &lw.bq, &lw.bk, &lw.bv };
    for (int p = 0; p < 3; ++p) {
        qkv[p] = modalMatmul(x, *proj_w[p], *proj_wq[p], mode);
        qkv[p] = addBias(qkv[p], *proj_b[p]);
        modalQuantize(qkv[p], mode);
    }

    // Attention scores / probabilities / context (Dataflow 3).
    const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(dk));
    PROSE_ASSERT(heads * dk == h && qkv[0].rows() == bl,
                 "head split does not tile the projections");
    Matrix context(bl, h);
    // The (batch, head) pairs are independent and write disjoint column
    // bands of `context`, so they fan out across the shared pool; each
    // pair's math is untouched, keeping results bit-identical to the
    // serial sweep.
    ThreadPool::global().parallelFor(
        batch * heads, [&](std::size_t p0, std::size_t p1) {
        for (std::size_t pair = p0; pair < p1; ++pair) {
            const std::uint64_t b = pair / heads;
            const std::uint64_t hd = pair % heads;
            // Slice this (batch, head) Q/K/V: seq_len x dk.
            Matrix qh(seq_len, dk), kh(seq_len, dk), vh(seq_len, dk);
            for (std::uint64_t t = 0; t < seq_len; ++t) {
                const std::size_t row = b * seq_len + t;
                std::copy_n(qkv[0].row(row) + hd * dk, dk, qh.row(t));
                std::copy_n(qkv[1].row(row) + hd * dk, dk, kh.row(t));
                std::copy_n(qkv[2].row(row) + hd * dk, dk, vh.row(t));
            }
            Matrix scores = modalMatmul(qh, transpose(kh), mode);
            scores = scale(scores, inv_sqrt_dk);
            modalQuantize(scores, mode);

            // Padding mask: PAD keys receive a score so negative that
            // the exponential flushes to exactly zero — on the
            // accelerator this is the Exp LUT's above-window saturate
            // path (Figure 14), so masking costs no extra hardware.
            if (pad_mask) {
                for (std::uint64_t j = 0; j < seq_len; ++j) {
                    if (!(*pad_mask)[b * seq_len + j])
                        continue;
                    for (std::uint64_t i = 0; i < seq_len; ++i)
                        scores(i, j) = kMaskScore;
                }
            }

            // Softmax in place: `scores` becomes the probabilities.
            if (mode == NumericsMode::Fp32) {
                scores = rowSoftmax(scores);
            } else {
                // Accelerator path: Exp on-array via the LUT (the SIMD
                // gather kernel, bit-exact with the scalar lookup on
                // every tier), then Dataflow 3's host trip, the same
                // sum/divide the functional simulator runs.
                const std::uint32_t *exp_table =
                    (customExp_ ? *customExp_ : expLut())
                        .flatFloatBits()
                        .data();
                for (std::uint64_t i = 0; i < seq_len; ++i)
                    kernels::activeKernels().lutRow(scores.row(i),
                                                    exp_table, seq_len);
                hostSoftmaxDivide(scores);
            }

            Matrix ctx = modalMatmul(scores, vh, mode);
            for (std::uint64_t t = 0; t < seq_len; ++t)
                std::copy_n(ctx.row(t), dk,
                            context.row(b * seq_len + t) + hd * dk);
        }
    });

    // Attention output projection + residual (Dataflow 1) + LayerNorm.
    Matrix attn_out = modalMatmul(context, lw.wo, qw.wo, mode);
    attn_out = addBias(attn_out, lw.bo);
    attn_out = add(attn_out, x);
    modalQuantize(attn_out, mode);
    Matrix normed = layerNorm(attn_out, lw.lnAttnGamma, lw.lnAttnBeta,
                              kLayerNormEps);
    modalQuantize(normed, mode);

    // --- Intermediate sublayer (Dataflow 2) ----------------------------
    Matrix inter = modalMatmul(normed, lw.w1, qw.w1, mode);
    inter = addBias(inter, lw.b1);
    modalQuantize(inter, mode);
    if (mode == NumericsMode::Fp32) {
        for (std::size_t i = 0; i < inter.rows(); ++i)
            for (std::size_t j = 0; j < inter.cols(); ++j)
                inter(i, j) = geluTanh(inter(i, j));
    } else {
        // GELU LUT sweep through the SIMD gather kernel (bit-exact
        // with the scalar two-level lookup on every tier).
        const std::uint32_t *gelu_table =
            (customGelu_ ? *customGelu_ : geluLut()).flatFloatBits().data();
        for (std::size_t i = 0; i < inter.rows(); ++i)
            kernels::activeKernels().lutRow(inter.row(i), gelu_table,
                                            inter.cols());
    }

    // --- Output sublayer (Dataflow 1) -----------------------------------
    Matrix out = modalMatmul(inter, lw.w2, qw.w2, mode);
    out = addBias(out, lw.b2);
    out = add(out, normed);
    modalQuantize(out, mode);
    Matrix result = layerNorm(out, lw.lnOutGamma, lw.lnOutBeta,
                              kLayerNormEps);
    modalQuantize(result, mode);
    return result;
}

Matrix
BertModel::runEncoderLayer(const Matrix &x, std::size_t layer,
                           std::uint64_t batch, std::uint64_t seq_len,
                           NumericsMode mode, OpTrace *trace) const
{
    PROSE_ASSERT(layer < config_.layers, "layer index out of range");
    PROSE_ASSERT(x.rows() == batch * seq_len &&
                     x.cols() == config_.hidden,
                 "activation shape mismatch");
    return encoderLayer(x, weights_.layers[layer],
                        static_cast<int>(layer), batch, seq_len, mode,
                        trace, nullptr);
}

BertModel::Output
BertModel::forward(const std::vector<std::vector<std::uint32_t>> &tokens,
                   NumericsMode mode, OpTrace *trace) const
{
    const std::uint64_t batch = tokens.size();
    PROSE_ASSERT(batch > 0, "forward over an empty batch");
    const std::uint64_t seq_len = tokens[0].size();

    // PAD positions must not receive attention from real tokens.
    std::vector<std::uint8_t> pad_mask(batch * seq_len, 0);
    bool any_pad = false;
    for (std::uint64_t b = 0; b < batch; ++b) {
        for (std::uint64_t t = 0; t < seq_len; ++t) {
            if (tokens[b][t] == kPadToken) {
                pad_mask[b * seq_len + t] = 1;
                any_pad = true;
            }
        }
    }

    Matrix x = embed(tokens, mode, trace);
    for (std::uint64_t layer = 0; layer < config_.layers; ++layer) {
        x = encoderLayer(x, weights_.layers[layer],
                         static_cast<int>(layer), batch, seq_len, mode,
                         trace, any_pad ? &pad_mask : nullptr);
    }

    // Pooler: tanh(CLS . Wp + bp), one row per sequence. Downstream-only;
    // not part of the accelerated trace.
    Matrix cls(batch, config_.hidden);
    for (std::uint64_t b = 0; b < batch; ++b)
        for (std::uint64_t j = 0; j < config_.hidden; ++j)
            cls(b, j) = x(b * seq_len, j);
    Matrix pooled = modalMatmul(cls, weights_.poolerW, poolerWBf16_, mode);
    pooled = addBias(pooled, weights_.poolerB);
    for (std::size_t i = 0; i < pooled.rows(); ++i)
        for (std::size_t j = 0; j < pooled.cols(); ++j)
            pooled(i, j) = std::tanh(pooled(i, j));
    modalQuantize(pooled, mode);

    return Output{ std::move(x), std::move(pooled) };
}

Matrix
BertModel::extractFeatures(
    const std::vector<std::vector<std::uint32_t>> &tokens,
    NumericsMode mode) const
{
    const Output out = forward(tokens, mode, nullptr);
    const std::uint64_t batch = tokens.size();
    const std::uint64_t seq_len = tokens[0].size();
    Matrix features(batch, config_.hidden);
    for (std::uint64_t b = 0; b < batch; ++b) {
        std::uint64_t counted = 0;
        for (std::uint64_t t = 0; t < seq_len; ++t) {
            if (tokens[b][t] == kPadToken)
                continue;
            ++counted;
            for (std::uint64_t j = 0; j < config_.hidden; ++j)
                features(b, j) += out.hidden(b * seq_len + t, j);
        }
        PROSE_ASSERT(counted > 0, "sequence with only PAD tokens");
        const float inv = 1.0f / static_cast<float>(counted);
        for (std::uint64_t j = 0; j < config_.hidden; ++j)
            features(b, j) *= inv;
    }
    return features;
}

} // namespace prose
