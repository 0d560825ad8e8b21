/**
 * @file
 * Minimal FASTA reader plus synthetic protein generation — the
 * input side of the protein-discovery workflow (Figure 2(b)) and the
 * synthetic protein strings the Section 2.3 profiling uses.
 */

#ifndef PROSE_PROTEIN_FASTA_HH
#define PROSE_PROTEIN_FASTA_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/random.hh"

namespace prose {

/** One FASTA record. */
struct FastaRecord
{
    std::string id;       ///< header up to the first whitespace
    std::string comment;  ///< rest of the header line
    std::string sequence; ///< residues, uppercased, whitespace stripped
};

/** Parse FASTA records from a stream; malformed input is a user error. */
std::vector<FastaRecord> readFasta(std::istream &in);

/** Parse a FASTA file by path. */
std::vector<FastaRecord> readFastaFile(const std::string &path);

/**
 * Generate a random protein of the given length over the 20 canonical
 * residues, with frequencies loosely matching UniProt composition.
 */
std::string randomProtein(Rng &rng, std::size_t length);

} // namespace prose

#endif // PROSE_PROTEIN_FASTA_HH
