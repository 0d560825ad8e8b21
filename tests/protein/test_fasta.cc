/** @file Tests for FASTA I/O and synthetic protein generation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "protein/amino_acid.hh"
#include "protein/fasta.hh"

namespace prose {
namespace {

TEST(Fasta, ParsesTwoRecords)
{
    std::istringstream in(">seq1 first protein\nMEYQ\nACDW\n"
                          ">seq2\nKKKK\n");
    const auto records = readFasta(in);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].id, "seq1");
    EXPECT_EQ(records[0].comment, "first protein");
    EXPECT_EQ(records[0].sequence, "MEYQACDW");
    EXPECT_EQ(records[1].id, "seq2");
    EXPECT_EQ(records[1].comment, "");
    EXPECT_EQ(records[1].sequence, "KKKK");
}

TEST(Fasta, UppercasesAndSkipsBlankLines)
{
    std::istringstream in(">x\n\nmeyq\n\nacd\n");
    const auto records = readFasta(in);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].sequence, "MEYQACD");
}

TEST(Fasta, EmptyInputGivesNoRecords)
{
    std::istringstream in("");
    EXPECT_TRUE(readFasta(in).empty());
}

// Fuzzing regression (see tests/fuzz/corpus/fasta): the reader used to
// swallow arbitrary non-residue bytes. A '>' absorbed into a sequence
// lands at a line start once a 60-column writer re-wraps it, and the
// re-written file parses as a DIFFERENT record list.
TEST(FastaDeathTest, NonResidueBytesInSequenceAreFatal)
{
    std::istringstream gt(">A\nMK>V\n");
    EXPECT_EXIT(readFasta(gt), testing::ExitedWithCode(1),
                "invalid character '>' in sequence of FASTA record 'A'");
    std::istringstream digit(">A\nMK7V\n");
    EXPECT_EXIT(readFasta(digit), testing::ExitedWithCode(1),
                "invalid character");
}

TEST(Fasta, StopAndGapCharactersAreStillAccepted)
{
    std::istringstream in(">A\nMSTAR-GAP*\n");
    const auto records = readFasta(in);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].sequence, "MSTAR-GAP*");
}

TEST(FastaDeathTest, SequenceBeforeHeaderIsFatal)
{
    std::istringstream in("MEYQ\n");
    EXPECT_EXIT(readFasta(in), testing::ExitedWithCode(1), "header");
}

TEST(FastaDeathTest, HeaderOnlyRecordIsFatal)
{
    std::istringstream in(">lonely-header\n");
    EXPECT_EXIT(readFasta(in), testing::ExitedWithCode(1), "no sequence");
}

TEST(FastaDeathTest, HeaderOnlyRecordInTheMiddleIsFatal)
{
    std::istringstream in(">a\nMEYQ\n>empty\n>b\nACD\n");
    EXPECT_EXIT(readFasta(in), testing::ExitedWithCode(1), "no sequence");
}

TEST(FastaDeathTest, EmptyRecordIdIsFatal)
{
    std::istringstream in("> comment only\nMEYQ\n");
    EXPECT_EXIT(readFasta(in), testing::ExitedWithCode(1), "empty record id");
}

TEST(FastaDeathTest, MissingFileIsFatal)
{
    EXPECT_EXIT(readFastaFile("/no/such/proteins.fasta"),
                testing::ExitedWithCode(1), "cannot open FASTA");
}

TEST(RandomProtein, LengthAndAlphabet)
{
    Rng rng(1);
    const std::string protein = randomProtein(rng, 500);
    EXPECT_EQ(protein.size(), 500u);
    for (char residue : protein)
        EXPECT_TRUE(isCanonical(residue)) << residue;
}

TEST(RandomProtein, CompositionRoughlyNatural)
{
    // Leucine should be the most common residue, tryptophan rare.
    Rng rng(2);
    const std::string protein = randomProtein(rng, 50000);
    auto count = [&](char code) {
        return std::count(protein.begin(), protein.end(), code);
    };
    EXPECT_GT(count('L'), count('W') * 4);
    EXPECT_GT(count('A'), count('C') * 2);
}

TEST(RandomProtein, Deterministic)
{
    Rng a(3), b(3);
    EXPECT_EQ(randomProtein(a, 100), randomProtein(b, 100));
}

} // namespace
} // namespace prose
