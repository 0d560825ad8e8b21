/**
 * @file
 * Parameter containers for the BERT encoder, plus deterministic
 * initialization. Real TAPE/ESM checkpoints are unavailable offline; the
 * accelerator-side evaluation only depends on shapes and op mix, and the
 * downstream-task experiment uses these randomly-initialized encoders as
 * fixed feature extractors (the "frozen random features" regime).
 */

#ifndef PROSE_MODEL_WEIGHTS_HH
#define PROSE_MODEL_WEIGHTS_HH

#include <vector>

#include "bert_config.hh"
#include "numerics/matrix.hh"

namespace prose {

/** Parameters of one encoder layer. */
struct LayerWeights
{
    Matrix wq, wk, wv; ///< H x H projection matrices
    std::vector<float> bq, bk, bv;
    Matrix wo; ///< H x H attention output projection
    std::vector<float> bo;
    std::vector<float> lnAttnGamma, lnAttnBeta;
    Matrix w1; ///< H x intermediate
    std::vector<float> b1;
    Matrix w2; ///< intermediate x H
    std::vector<float> b2;
    std::vector<float> lnOutGamma, lnOutBeta;
};

/** Full encoder parameters. */
struct BertWeights
{
    Matrix tokenEmbedding;    ///< vocab x H
    Matrix positionEmbedding; ///< maxSeqLen x H
    std::vector<float> lnEmbGamma, lnEmbBeta;
    std::vector<LayerWeights> layers;

    /** Pooler (CLS head): H x H with tanh, standard BERT. */
    Matrix poolerW;
    std::vector<float> poolerB;

    /** Allocate and deterministically initialize all parameters. */
    static BertWeights initialize(const BertConfig &config,
                                  std::uint64_t seed);
};

} // namespace prose

#endif // PROSE_MODEL_WEIGHTS_HH
