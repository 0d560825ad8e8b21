/**
 * @file
 * Deep mutational scanning — the mutation-effect-prediction workload the
 * paper cites (Meier et al., "Language models enable zero-shot
 * prediction of the effects of mutations on protein function"). Every
 * single-point mutant of a wild-type protein (19 substitutions x L
 * positions) is pushed through the Protein BERT feature extractor and
 * scored by a downstream head; the result is the position-by-residue
 * effect landscape drug designers read as a heatmap.
 */

#ifndef PROSE_PROTEIN_MUTATION_SCAN_HH
#define PROSE_PROTEIN_MUTATION_SCAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "model/bert_model.hh"
#include "numerics/linalg.hh"

namespace prose {

/** One scored substitution. */
struct MutationEffect
{
    std::size_t position = 0; ///< 0-based residue index
    char from = 'A';          ///< wild-type residue
    char to = 'A';            ///< substituted residue
    double score = 0.0;       ///< predicted(mutant) - predicted(wild)
};

/** The full landscape of a scan. */
struct MutationScan
{
    std::string wildType;
    double wildTypeScore = 0.0;
    std::vector<MutationEffect> effects; ///< 19 x L entries

    /** The most beneficial substitution. */
    const MutationEffect &best() const;

    /** The most deleterious substitution. */
    const MutationEffect &worst() const;

    /** Mean |effect| per position — which sites matter at all. */
    std::vector<double> positionSensitivity() const;
};

/**
 * Scan every single-point mutant of `wild_type`, scoring each with the
 * fitted head over the model's fp32 features. Mutants are batched 64 at
 * a time (all share the wild-type's length, so no padding is
 * introduced).
 */
MutationScan scanMutations(const BertModel &model,
                           const RidgeModel &head,
                           const std::string &wild_type);

} // namespace prose

#endif // PROSE_PROTEIN_MUTATION_SCAN_HH
