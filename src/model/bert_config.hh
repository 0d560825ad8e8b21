/**
 * @file
 * Protein BERT model hyperparameters. The paper's models are structurally
 * identical to BERT-base (12 layers, hidden 768, 12 heads, intermediate
 * 3072) — only the pre-trained weights and input domain differ.
 */

#ifndef PROSE_MODEL_BERT_CONFIG_HH
#define PROSE_MODEL_BERT_CONFIG_HH

#include <cstdint>

#include "trace/dataflow.hh"

namespace prose {

/** Hyperparameters of one BERT-style encoder. */
struct BertConfig
{
    std::uint64_t hidden = 768;        ///< model width H
    std::uint64_t layers = 12;         ///< encoder layer count
    std::uint64_t heads = 12;          ///< attention heads (H % heads == 0)
    std::uint64_t intermediate = 3072; ///< feed-forward width, 4H
    std::uint64_t maxSeqLen = 2048;    ///< position-embedding capacity

    /** Per-head dimension (64 for BERT-base). */
    std::uint64_t headDim() const { return hidden / heads; }

    /** The paper's Protein BERT (BERT-base shape). */
    static BertConfig proteinBertBase();

    /**
     * A laptop-friendly shrunken config with the same structure, for
     * functional tests and examples that execute the real math.
     */
    static BertConfig tiny();

    /** Shape view used by the trace synthesizer / perf simulator. */
    BertShape shape(std::uint64_t batch, std::uint64_t seq_len) const;

    /** Sanity-check invariants (heads divide hidden, non-zero dims). */
    void validate() const;
};

} // namespace prose

#endif // PROSE_MODEL_BERT_CONFIG_HH
