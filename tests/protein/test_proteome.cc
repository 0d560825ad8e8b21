/** @file Tests for synthetic proteome generation. */

#include <gtest/gtest.h>

#include <cmath>

#include "protein/amino_acid.hh"
#include "protein/proteome.hh"

namespace prose {
namespace {

TEST(Proteome, LengthsWithinBounds)
{
    Rng rng(1);
    const ProteomeSpec spec;
    for (int i = 0; i < 2000; ++i) {
        const std::size_t length = sampleProteinLength(rng, spec);
        EXPECT_GE(length, kMinProteinLength);
        EXPECT_LE(length, spec.maxLength);
    }
}

TEST(Proteome, MedianNearEukaryoticTypical)
{
    Rng rng(2);
    const ProteomeSpec spec;
    std::vector<double> lengths;
    for (int i = 0; i < 5000; ++i)
        lengths.push_back(
            static_cast<double>(sampleProteinLength(rng, spec)));
    std::sort(lengths.begin(), lengths.end());
    const double median = lengths[lengths.size() / 2];
    // exp(5.8) ~ 330; the paper's "majority of protein sequences are
    // 300-2000+ tokens".
    EXPECT_GT(median, 250.0);
    EXPECT_LT(median, 420.0);
}

TEST(Proteome, HeavyTailPresent)
{
    Rng rng(3);
    const ProteomeSpec spec;
    std::size_t over_800 = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        over_800 += sampleProteinLength(rng, spec) > 800 ? 1 : 0;
    // A real proteome has a few percent of very long proteins.
    EXPECT_GT(over_800, n / 100);
    EXPECT_LT(over_800, n / 4);
}

TEST(Proteome, SynthesizeProducesValidRecords)
{
    Rng rng(4);
    const auto records = synthesizeProteome(rng, 50, ProteomeSpec{});
    ASSERT_EQ(records.size(), 50u);
    for (const auto &record : records) {
        EXPECT_FALSE(record.id.empty());
        EXPECT_FALSE(record.sequence.empty());
        for (char residue : record.sequence)
            EXPECT_TRUE(isCanonical(residue));
    }
}

TEST(Proteome, SummaryMatchesRecords)
{
    Rng rng(5);
    const auto records = synthesizeProteome(rng, 200, ProteomeSpec{});
    const ProteomeStats stats = summarizeProteome(records);
    EXPECT_EQ(stats.count, 200u);
    EXPECT_LE(stats.minLength, stats.maxLength);
    EXPECT_GE(stats.meanLength, static_cast<double>(stats.minLength));
    EXPECT_LE(stats.meanLength, static_cast<double>(stats.maxLength));
    std::uint64_t total = 0;
    for (const auto &record : records)
        total += record.sequence.size();
    EXPECT_EQ(stats.totalResidues, total);
}

TEST(Proteome, Deterministic)
{
    Rng a(6), b(6);
    const auto ra = synthesizeProteome(a, 10, ProteomeSpec{});
    const auto rb = synthesizeProteome(b, 10, ProteomeSpec{});
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(ra[i].sequence, rb[i].sequence);
}

TEST(Proteome, DegenerateSpecClampsInsteadOfSpinning)
{
    Rng rng(7);
    ProteomeSpec narrow;
    narrow.logMu = 20.0; // e^20 residues: always above maxLength
    narrow.maxLength = 200;
    const std::size_t length = sampleProteinLength(rng, narrow);
    EXPECT_GE(length, kMinProteinLength);
    EXPECT_LE(length, narrow.maxLength);
}

TEST(ProteomeDeathTest, EmptySummaryPanics)
{
    EXPECT_DEATH(summarizeProteome({}), "empty");
}

} // namespace
} // namespace prose
