/**
 * @file
 * Amino-acid tokenizer. A protein is a string over the amino-acid
 * alphabet; each residue is one token (Figure 2(b)). The vocabulary holds
 * five special tokens followed by the 20 canonical amino acids and the 6
 * extended/ambiguity codes (B J O U X Z).
 */

#ifndef PROSE_MODEL_TOKENIZER_HH
#define PROSE_MODEL_TOKENIZER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace prose {

/** Token ids for the special vocabulary entries. */
enum SpecialToken : std::uint32_t
{
    kPadToken = 0,
    kUnkToken = 1,
    kClsToken = 2,
    kSepToken = 3,
    kMaskToken = 4,
};

/** Character-level tokenizer over the amino-acid alphabet. */
class AminoTokenizer
{
  public:
    AminoTokenizer();

    /**
     * Encode a protein sequence: [CLS] residues... [SEP], padded with
     * [PAD] (or truncated, keeping the trailing [SEP]) to `target_len`.
     * Unknown characters map to [UNK]. target_len == 0 means no padding.
     */
    std::vector<std::uint32_t> encode(const std::string &sequence,
                                      std::size_t target_len = 0) const;

    /** Token id of one residue character, or kUnkToken. */
    std::uint32_t residueId(char residue) const;

    /** The residue alphabet in id order. */
    const std::string &alphabet() const { return alphabet_; }

  private:
    std::string alphabet_;
    std::int32_t charToId_[256];
};

} // namespace prose

#endif // PROSE_MODEL_TOKENIZER_HH
