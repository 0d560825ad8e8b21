/** @file Tests for deep mutational scanning. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hh"
#include "protein/amino_acid.hh"
#include "protein/fasta.hh"
#include "model/tokenizer.hh"
#include "protein/mutation_scan.hh"

namespace prose {
namespace {

/** A tiny model + head trained on a known biophysical signal. */
struct Fixture
{
    Fixture()
        : model(makeConfig(), 33)
    {
        Rng rng(8);
        std::vector<std::string> proteins;
        std::vector<double> targets;
        const AminoTokenizer tokenizer;
        std::vector<std::vector<std::uint32_t>> tokens;
        for (int i = 0; i < 80; ++i) {
            const std::string protein = randomProtein(rng, kLen);
            double hydropathy = 0.0;
            for (char residue : protein)
                hydropathy += aminoAcid(residue).hydropathy;
            proteins.push_back(protein);
            targets.push_back(hydropathy / kLen);
            tokens.push_back(tokenizer.encode(protein, kLen + 2));
        }
        head = ridgeFit(model.extractFeatures(tokens), targets, 5.0);
    }

    static BertConfig
    makeConfig()
    {
        BertConfig config = BertConfig::tiny();
        config.maxSeqLen = 64;
        return config;
    }

    static constexpr std::size_t kLen = 18;
    BertModel model;
    RidgeModel head;
};

Fixture &
fixture()
{
    static Fixture instance;
    return instance;
}

/** The recorded score of substituting `to` at `position`. */
double
effectOf(const MutationScan &scan, std::size_t position, char to)
{
    for (const MutationEffect &effect : scan.effects)
        if (effect.position == position && effect.to == to)
            return effect.score;
    ADD_FAILURE() << "no effect recorded for " << position << " -> " << to;
    return 0.0;
}

TEST(MutationScan, EnumeratesAllSubstitutions)
{
    Fixture &f = fixture();
    const std::string wild = "ACDEFGHIKL";
    const MutationScan scan = scanMutations(f.model, f.head, wild);
    EXPECT_EQ(scan.effects.size(), 19u * wild.size());
    // No self-substitutions.
    for (const auto &effect : scan.effects)
        EXPECT_NE(effect.from, effect.to);
}

TEST(MutationScan, EffectsAreHeadDeltas)
{
    Fixture &f = fixture();
    const std::string wild = "ACDEFG";
    const MutationScan scan = scanMutations(f.model, f.head, wild);

    // Recompute one mutant's score by hand.
    const AminoTokenizer tokenizer;
    std::string mutant = wild;
    mutant[2] = 'W';
    const double mutant_score =
        f.head
            .predictRows(f.model.extractFeatures(
                { tokenizer.encode(mutant, wild.size() + 2) }))
            .front();
    EXPECT_NEAR(effectOf(scan, 2, 'W'),
                mutant_score - scan.wildTypeScore, 1e-9);
}

TEST(MutationScan, BatchSizeDoesNotChangeResults)
{
    // 114 mutants span two batches; each effect must equal the mutant
    // scored on its own.
    Fixture &f = fixture();
    const std::string wild = "MEYQAC";
    const MutationScan scan = scanMutations(f.model, f.head, wild);
    const AminoTokenizer tokenizer;
    ASSERT_EQ(scan.effects.size(), 19u * wild.size());
    for (const MutationEffect &effect : scan.effects) {
        std::string mutant = wild;
        mutant[effect.position] = effect.to;
        const double alone =
            f.head
                .predictRows(f.model.extractFeatures(
                    { tokenizer.encode(mutant, wild.size() + 2) }))
                .front();
        EXPECT_NEAR(effect.score, alone - scan.wildTypeScore, 1e-9);
    }
}

TEST(MutationScan, RecoversHydropathyDirection)
{
    // The head was trained on mean hydropathy, so substituting a very
    // hydrophobic residue (I, +4.5) for a very hydrophilic one
    // (R, -4.5) should score positive, and vice versa.
    Fixture &f = fixture();
    const std::string wild = "RRRRRRIIIIII";
    const MutationScan scan = scanMutations(f.model, f.head, wild);
    // R -> I at an R site vs I -> R at an I site.
    EXPECT_GT(effectOf(scan, 0, 'I'), effectOf(scan, 6, 'R'));
}

TEST(MutationScan, PredictedEffectsCorrelateWithTruth)
{
    Fixture &f = fixture();
    Rng rng(21);
    const std::string wild = randomProtein(rng, Fixture::kLen);
    const MutationScan scan = scanMutations(f.model, f.head, wild);

    std::vector<double> predicted, truth;
    for (const auto &effect : scan.effects) {
        predicted.push_back(effect.score);
        truth.push_back((aminoAcid(effect.to).hydropathy -
                         aminoAcid(effect.from).hydropathy) /
                        static_cast<double>(wild.size()));
    }
    EXPECT_GT(spearman(predicted, truth), 0.5);
}

TEST(MutationScan, BestAndWorstAreExtremes)
{
    Fixture &f = fixture();
    const std::string wild = "ACDEFG";
    const MutationScan scan = scanMutations(f.model, f.head, wild);
    for (const auto &effect : scan.effects) {
        EXPECT_LE(effect.score, scan.best().score);
        EXPECT_GE(effect.score, scan.worst().score);
    }
}

TEST(MutationScan, PositionSensitivityCoversEveryPosition)
{
    Fixture &f = fixture();
    const std::string wild = "ACDEFGHI";
    const MutationScan scan = scanMutations(f.model, f.head, wild);
    const auto sensitivity = scan.positionSensitivity();
    ASSERT_EQ(sensitivity.size(), wild.size());
    for (double s : sensitivity)
        EXPECT_GT(s, 0.0);
}

TEST(MutationScanDeathTest, RejectsNonCanonicalWildType)
{
    Fixture &f = fixture();
    EXPECT_DEATH(scanMutations(f.model, f.head, "ACDX1"),
                 "non-canonical");
}

} // namespace
} // namespace prose
