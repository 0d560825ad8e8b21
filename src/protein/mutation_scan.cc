#include "mutation_scan.hh"

#include <algorithm>
#include <cmath>

#include "amino_acid.hh"
#include "common/logging.hh"
#include "model/tokenizer.hh"

namespace prose {

namespace {

/** Mutants scored per forward pass. */
constexpr std::size_t kScanBatch = 64;

} // namespace

const MutationEffect &
MutationScan::best() const
{
    PROSE_ASSERT(!effects.empty(), "empty mutation scan");
    return *std::max_element(effects.begin(), effects.end(),
                             [](const auto &a, const auto &b) {
                                 return a.score < b.score;
                             });
}

const MutationEffect &
MutationScan::worst() const
{
    PROSE_ASSERT(!effects.empty(), "empty mutation scan");
    return *std::min_element(effects.begin(), effects.end(),
                             [](const auto &a, const auto &b) {
                                 return a.score < b.score;
                             });
}

std::vector<double>
MutationScan::positionSensitivity() const
{
    std::vector<double> sensitivity(wildType.size(), 0.0);
    std::vector<std::size_t> counts(wildType.size(), 0);
    for (const MutationEffect &effect : effects) {
        sensitivity[effect.position] += std::fabs(effect.score);
        ++counts[effect.position];
    }
    for (std::size_t pos = 0; pos < sensitivity.size(); ++pos)
        if (counts[pos] > 0)
            sensitivity[pos] /= static_cast<double>(counts[pos]);
    return sensitivity;
}

MutationScan
scanMutations(const BertModel &model, const RidgeModel &head,
              const std::string &wild_type)
{
    PROSE_ASSERT(!wild_type.empty(), "empty wild type");
    for (char residue : wild_type)
        PROSE_ASSERT(isCanonical(residue),
                     "wild type contains a non-canonical residue '",
                     residue, "'");

    const AminoTokenizer tokenizer;
    const std::size_t target_len = wild_type.size() + 2;

    MutationScan scan;
    scan.wildType = wild_type;
    {
        const Matrix features = model.extractFeatures(
            { tokenizer.encode(wild_type, target_len) });
        scan.wildTypeScore = head.predictRows(features).front();
    }

    // Enumerate all 19 x L mutants, scoring in batches.
    std::vector<MutationEffect> pending;
    std::vector<std::vector<std::uint32_t>> tokens;
    auto flush = [&] {
        if (pending.empty())
            return;
        const Matrix features = model.extractFeatures(tokens);
        const std::vector<double> scores = head.predictRows(features);
        for (std::size_t i = 0; i < pending.size(); ++i) {
            pending[i].score = scores[i] - scan.wildTypeScore;
            scan.effects.push_back(pending[i]);
        }
        pending.clear();
        tokens.clear();
    };

    for (std::size_t pos = 0; pos < wild_type.size(); ++pos) {
        for (char to : canonicalResidues()) {
            if (to == wild_type[pos])
                continue;
            std::string mutant = wild_type;
            mutant[pos] = to;
            MutationEffect effect;
            effect.position = pos;
            effect.from = wild_type[pos];
            effect.to = to;
            pending.push_back(effect);
            tokens.push_back(tokenizer.encode(mutant, target_len));
            if (pending.size() >= kScanBatch)
                flush();
        }
    }
    flush();
    return scan;
}

} // namespace prose
