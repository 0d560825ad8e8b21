#include "weights.hh"

#include "tokenizer.hh"

namespace prose {

namespace {

/** Gaussian matrix of the given shape. */
Matrix
gaussianMatrix(Rng &rng, std::size_t rows, std::size_t cols, float stddev)
{
    Matrix m(rows, cols);
    m.fillGaussian(rng, 0.0f, stddev);
    return m;
}

/** Gaussian bias vector. */
std::vector<float>
gaussianVector(Rng &rng, std::size_t n, float stddev)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = static_cast<float>(rng.gaussian(0.0, stddev));
    return v;
}

} // namespace

BertWeights
BertWeights::initialize(const BertConfig &config, std::uint64_t seed)
{
    config.validate();
    Rng rng(seed);
    const float sd = kInitStddev;
    const std::size_t h = config.hidden;
    const std::size_t ffn = config.intermediate;

    BertWeights w;
    w.tokenEmbedding = gaussianMatrix(rng, kVocabSize, h, sd);
    w.positionEmbedding = gaussianMatrix(rng, config.maxSeqLen, h, sd);
    w.lnEmbGamma.assign(h, 1.0f);
    w.lnEmbBeta.assign(h, 0.0f);

    w.layers.resize(config.layers);
    for (auto &layer : w.layers) {
        layer.wq = gaussianMatrix(rng, h, h, sd);
        layer.wk = gaussianMatrix(rng, h, h, sd);
        layer.wv = gaussianMatrix(rng, h, h, sd);
        layer.wo = gaussianMatrix(rng, h, h, sd);
        layer.bq = gaussianVector(rng, h, sd);
        layer.bk = gaussianVector(rng, h, sd);
        layer.bv = gaussianVector(rng, h, sd);
        layer.bo = gaussianVector(rng, h, sd);
        layer.lnAttnGamma.assign(h, 1.0f);
        layer.lnAttnBeta.assign(h, 0.0f);
        layer.w1 = gaussianMatrix(rng, h, ffn, sd);
        layer.b1 = gaussianVector(rng, ffn, sd);
        layer.w2 = gaussianMatrix(rng, ffn, h, sd);
        layer.b2 = gaussianVector(rng, h, sd);
        layer.lnOutGamma.assign(h, 1.0f);
        layer.lnOutBeta.assign(h, 0.0f);
    }

    w.poolerW = gaussianMatrix(rng, h, h, sd);
    w.poolerB = gaussianVector(rng, h, sd);
    return w;
}

} // namespace prose
