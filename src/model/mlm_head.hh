/**
 * @file
 * Masked-language-model head — the pretraining objective of every
 * BERT-style protein model, and the engine behind *zero-shot* mutation
 * effect prediction (Meier et al., the paper's zero-shot citation):
 * mask a position, read the model's probability distribution over
 * residues there, and score a substitution as
 *
 *     log p(mutant residue | context) - log p(wild residue | context)
 *
 * with no downstream training at all. Logits tie to the token-embedding
 * matrix, as in standard BERT.
 */

#ifndef PROSE_MODEL_MLM_HEAD_HH
#define PROSE_MODEL_MLM_HEAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bert_model.hh"

namespace prose {

/** Vocabulary distribution reader over encoder hidden states. */
class MlmHead
{
  public:
    /** Bind to a model (borrows; the model must outlive the head). */
    explicit MlmHead(const BertModel &model);

    /**
     * Log-probabilities over the vocabulary for one position of a
     * tokenized sequence, computed by masking that position and running
     * the encoder (one forward per query).
     */
    std::vector<double> logProbabilities(
        const std::vector<std::uint32_t> &tokens, std::size_t position,
        NumericsMode mode = NumericsMode::Fp32) const;

    /**
     * Zero-shot single-substitution score at a residue position of a
     * raw protein (0-based, excluding CLS):
     * log p(to) - log p(from) under the masked distribution.
     */
    double zeroShotScore(const std::string &protein,
                         std::size_t position, char to,
                         NumericsMode mode = NumericsMode::Fp32) const;

  private:
    const BertModel &model_;
};

} // namespace prose

#endif // PROSE_MODEL_MLM_HEAD_HH
