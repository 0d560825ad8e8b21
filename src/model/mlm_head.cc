#include "mlm_head.hh"

#include <cmath>

#include "common/logging.hh"
#include "tokenizer.hh"

namespace prose {

MlmHead::MlmHead(const BertModel &model)
    : model_(model)
{
}

std::vector<double>
MlmHead::logProbabilities(const std::vector<std::uint32_t> &tokens,
                          std::size_t position, NumericsMode mode) const
{
    PROSE_ASSERT(position < tokens.size(), "position out of range");

    // Mask the queried position and run the encoder.
    std::vector<std::uint32_t> masked = tokens;
    masked[position] = kMaskToken;
    const BertModel::Output out = model_.forward({ masked }, mode);

    // Tied decoder: logits = hidden . tokenEmbedding^T.
    const Matrix &embedding = model_.weights().tokenEmbedding;
    const std::size_t vocab = embedding.rows();
    std::vector<double> logits(vocab, 0.0);
    for (std::size_t v = 0; v < vocab; ++v) {
        double dot = 0.0;
        for (std::size_t j = 0; j < model_.config().hidden; ++j)
            dot += static_cast<double>(out.hidden(position, j)) *
                   embedding(v, j);
        logits[v] = dot;
    }

    // Log-softmax over the vocabulary.
    double max_logit = logits[0];
    for (double logit : logits)
        max_logit = std::max(max_logit, logit);
    double denom = 0.0;
    for (double logit : logits)
        denom += std::exp(logit - max_logit);
    const double log_denom = std::log(denom) + max_logit;
    for (double &logit : logits)
        logit -= log_denom;
    return logits;
}

double
MlmHead::zeroShotScore(const std::string &protein, std::size_t position,
                       char to, NumericsMode mode) const
{
    PROSE_ASSERT(position < protein.size(),
                 "residue position out of range");
    const AminoTokenizer tokenizer;
    const std::vector<std::uint32_t> tokens = tokenizer.encode(protein);
    // +1 skips [CLS].
    const std::vector<double> log_probs =
        logProbabilities(tokens, position + 1, mode);
    const std::uint32_t from_id = tokenizer.residueId(protein[position]);
    const std::uint32_t to_id = tokenizer.residueId(to);
    return log_probs[to_id] - log_probs[from_id];
}

} // namespace prose
