/**
 * @file
 * The Protein BERT encoder: a from-scratch BERT-base-style transformer
 * executing real math, with two numerics modes and optional op tracing.
 *
 * Modes:
 *  - Fp32: reference fp32 forward (the "GPU" numerics).
 *  - Bf16Lut: the full accelerator numerics. Operands are quantized to
 *    bfloat16 and products accumulated in fp32 (the ProSE MAC datapath),
 *    and GELU/Exp are evaluated through the two-level lookup tables of
 *    the special-function units: the paper's process-wide geluLut() /
 *    expLut() unless setSpecialFunctionLuts gave the model its own. The
 *    paper notes model accuracy is sensitive to GELU / softmax
 *    precision; tests compare the two modes.
 *
 * When a trace is supplied, embed() and each encoder layer record their
 * block through trace/'s emitters (recordEmbedding, recordEncoderLayer)
 * with the dims they run, so the forward's op stream is the one
 * synthesizeBertTrace() builds from the same emitters. That is how the
 * performance simulator can run from synthetic traces at sizes where
 * real math would be wastefully slow.
 */

#ifndef PROSE_MODEL_BERT_MODEL_HH
#define PROSE_MODEL_BERT_MODEL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "bert_config.hh"
#include "numerics/lut.hh"
#include "numerics/matrix.hh"
#include "trace/op_trace.hh"
#include "weights.hh"

namespace prose {

/** LayerNorm epsilon (BERT-base's). */
constexpr float kLayerNormEps = 1e-12f;

/** Numeric fidelity of a forward pass. */
enum class NumericsMode
{
    Fp32,
    Bf16Lut,
};

/** A BERT encoder with concrete weights. */
class BertModel
{
  public:
    /** Build with deterministic random init. */
    BertModel(const BertConfig &config, std::uint64_t seed);

    /** Build around externally-prepared weights. */
    BertModel(const BertConfig &config, BertWeights weights);

    /** Result of a forward pass. */
    struct Output
    {
        /** Final hidden states, (batch * seq_len) x hidden, row-major by
         *  sequence then position. */
        Matrix hidden;
        /** Pooled [CLS] representation after the tanh pooler,
         *  batch x hidden. */
        Matrix pooled;
    };

    /**
     * Run the encoder over a batch of equal-length token sequences.
     *
     * @param tokens batch of sequences; all must share one length
     * @param mode numeric fidelity (see NumericsMode)
     * @param trace if non-null, receives the op stream
     */
    Output forward(const std::vector<std::vector<std::uint32_t>> &tokens,
                   NumericsMode mode = NumericsMode::Fp32,
                   OpTrace *trace = nullptr) const;

    /**
     * Run a single encoder layer over flattened hidden states — the
     * layer-wise execution mode used to validate the accelerator's
     * functional simulator against the model, and by pipelined
     * deployments that interleave layers with other work.
     *
     * @param x (batch * seq_len) x hidden input activations
     * @param layer encoder layer index
     */
    Matrix runEncoderLayer(const Matrix &x, std::size_t layer,
                           std::uint64_t batch, std::uint64_t seq_len,
                           NumericsMode mode = NumericsMode::Fp32,
                           OpTrace *trace = nullptr) const;

    /**
     * Mean-pooled final hidden state per sequence (the TAPE-style feature
     * vector used by the Section 2.2 downstream regression). PAD
     * positions are excluded from the mean.
     */
    Matrix extractFeatures(
        const std::vector<std::vector<std::uint32_t>> &tokens,
        NumericsMode mode = NumericsMode::Fp32) const;

    /**
     * Give this model its own special-function lookup tables for
     * Bf16Lut mode, in place of the shared geluLut()/expLut() — the
     * knob behind the Figures 13/14 window-size ablation ("we have
     * validated that these truncation policies do not affect the
     * accuracy of the models we study").
     */
    void setSpecialFunctionLuts(TwoLevelLut gelu, TwoLevelLut exp);

    const BertConfig &config() const { return config_; }
    const BertWeights &weights() const { return weights_; }

  private:
    /** Embedding lookup + position add + LayerNorm. */
    Matrix embed(const std::vector<std::vector<std::uint32_t>> &tokens,
                 NumericsMode mode, OpTrace *trace) const;

    /**
     * One encoder layer over flattened hidden states.
     * @param pad_mask per-token PAD flags (batch * seq_len), or nullptr
     *        when nothing is padded
     */
    Matrix encoderLayer(const Matrix &x, const LayerWeights &lw,
                        int layer, std::uint64_t batch,
                        std::uint64_t seq_len, NumericsMode mode,
                        OpTrace *trace,
                        const std::vector<std::uint8_t> *pad_mask) const;

    /** MatMul respecting the numerics mode. */
    Matrix modalMatmul(const Matrix &a, const Matrix &b,
                       NumericsMode mode) const;

    /**
     * MatMul against a constant weight operand: fp32 uses `w`, the bf16
     * modes use the cached pre-quantized copy `wq` (quantized once at
     * construction instead of once per call).
     */
    Matrix modalMatmul(const Matrix &a, const Matrix &w,
                       const QuantizedOperand &wq,
                       NumericsMode mode) const;

    /** Elementwise quantization when the mode is Bf16Lut. */
    void modalQuantize(Matrix &m, NumericsMode mode) const;

    /** bf16-quantized copies of one layer's weight matrices. */
    struct QuantizedLayerWeights
    {
        QuantizedOperand wq, wk, wv, wo, w1, w2;
    };

    /** Quantize every weight matrix into the bf16 cache. */
    void buildWeightCache();

    BertConfig config_;
    BertWeights weights_;
    /** Tables from setSpecialFunctionLuts; empty means the shared ones.
     *  The Bf16Lut sweeps gather from their flatFloatBits(). */
    std::optional<TwoLevelLut> customGelu_;
    std::optional<TwoLevelLut> customExp_;
    std::vector<QuantizedLayerWeights> bf16Weights_;
    QuantizedOperand poolerWBf16_;
};

} // namespace prose

#endif // PROSE_MODEL_BERT_MODEL_HH
