/**
 * @file
 * Synthetic proteome generation. Real protein length distributions are
 * heavy-tailed (median ~270–350 residues in eukaryotes, with a long
 * tail past 2000 — the paper's "300 to 2000+ tokens"); a discovery
 * engine ingests whole proteomes, not fixed-length batches. This module
 * samples realistic length mixtures for the batching substrate and
 * mixed-workload benchmarks.
 */

#ifndef PROSE_PROTEIN_PROTEOME_HH
#define PROSE_PROTEIN_PROTEOME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "fasta.hh"

namespace prose {

/** Shortest synthetic protein: fragments below this are discarded. */
constexpr std::size_t kMinProteinLength = 30;

/** Parameters of the synthetic length distribution. */
struct ProteomeSpec
{
    /**
     * Log-normal length model: ln(length) ~ N(mu, 0.55). The default mu
     * gives a median of ~exp(5.8) ~ 330 residues and a upper decile past
     * 800, matching eukaryotic proteome statistics.
     */
    double logMu = 5.8;
    std::size_t maxLength = 2046;  ///< clamp to the model's max input
};

/** Draw one protein length from the distribution. */
std::size_t sampleProteinLength(Rng &rng, const ProteomeSpec &spec);

/** Generate `count` synthetic proteins as FASTA records. */
std::vector<FastaRecord> synthesizeProteome(Rng &rng, std::size_t count,
                                            const ProteomeSpec &spec);

/** Length summary of a proteome (for reports). */
struct ProteomeStats
{
    std::size_t count = 0;
    std::size_t minLength = 0;
    std::size_t maxLength = 0;
    double meanLength = 0.0;
    double medianLength = 0.0;
    std::uint64_t totalResidues = 0;
};

ProteomeStats summarizeProteome(const std::vector<FastaRecord> &records);

} // namespace prose

#endif // PROSE_PROTEIN_PROTEOME_HH
