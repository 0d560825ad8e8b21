#include "tokenizer.hh"

#include <cctype>

#include "common/logging.hh"

namespace prose {

namespace {

/** 20 canonical amino acids then the extended/ambiguity codes. */
constexpr char kResidues[] = "ACDEFGHIKLMNPQRSTVWYBJOUXZ";
static_assert(sizeof(kResidues) - 1 == kNumResidues,
              "kNumResidues must match the residue alphabet");

} // namespace

AminoTokenizer::AminoTokenizer() : alphabet_(kResidues)
{
    for (auto &entry : charToId_)
        entry = -1;
    for (std::size_t i = 0; i < alphabet_.size(); ++i) {
        const auto id = static_cast<std::int32_t>(kNumSpecials + i);
        charToId_[static_cast<unsigned char>(alphabet_[i])] = id;
        charToId_[static_cast<unsigned char>(
            std::tolower(alphabet_[i]))] = id;
    }
}

std::uint32_t
AminoTokenizer::residueId(char residue) const
{
    const std::int32_t id = charToId_[static_cast<unsigned char>(residue)];
    return id < 0 ? kUnkToken : static_cast<std::uint32_t>(id);
}

std::vector<std::uint32_t>
AminoTokenizer::encode(const std::string &sequence,
                       std::size_t target_len) const
{
    std::vector<std::uint32_t> tokens;
    tokens.reserve(sequence.size() + 2);
    tokens.push_back(kClsToken);
    for (char residue : sequence)
        tokens.push_back(residueId(residue));
    tokens.push_back(kSepToken);

    if (target_len == 0)
        return tokens;

    PROSE_ASSERT(target_len >= 2, "target_len must fit [CLS] and [SEP]");
    if (tokens.size() > target_len) {
        // Truncate residues but keep the trailing [SEP].
        tokens.resize(target_len);
        tokens.back() = kSepToken;
    } else {
        tokens.resize(target_len, kPadToken);
    }
    return tokens;
}

} // namespace prose
