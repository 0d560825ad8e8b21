/** @file Tests for the amino-acid tokenizer. */

#include <gtest/gtest.h>

#include <algorithm>

#include "model/tokenizer.hh"

namespace prose {
namespace {

TEST(Tokenizer, VocabCoversSpecialsAndAlphabet)
{
    AminoTokenizer tok;
    // 5 specials + 26 residue codes: ids 5..30, one per residue.
    EXPECT_EQ(tok.alphabet().size(), 26u);
    EXPECT_EQ(tok.residueId(tok.alphabet().front()), 5u);
    EXPECT_EQ(tok.residueId(tok.alphabet().back()), 30u);
}

TEST(Tokenizer, EveryIdFitsTheVocabulary)
{
    AminoTokenizer tok;
    std::uint32_t largest = 0;
    for (std::uint32_t special : {kPadToken, kUnkToken, kClsToken,
                                  kSepToken, kMaskToken}) {
        EXPECT_LT(special, kVocabSize);
        largest = std::max(largest, special);
    }
    for (char residue : tok.alphabet()) {
        const std::uint32_t id = tok.residueId(residue);
        EXPECT_LT(id, kVocabSize) << residue;
        largest = std::max(largest, id);
    }
    EXPECT_EQ(largest, kVocabSize - 1);
}

TEST(Tokenizer, EncodeWrapsWithClsSep)
{
    AminoTokenizer tok;
    const auto ids = tok.encode("MEYQ");
    ASSERT_EQ(ids.size(), 6u);
    EXPECT_EQ(ids.front(), kClsToken);
    EXPECT_EQ(ids.back(), kSepToken);
}

TEST(Tokenizer, ResidueIdsAreStableAndDistinct)
{
    AminoTokenizer tok;
    const auto a = tok.residueId('A');
    const auto c = tok.residueId('C');
    EXPECT_NE(a, c);
    EXPECT_GE(a, 5u);
    EXPECT_EQ(tok.residueId('A'), a); // stable
}

TEST(Tokenizer, LowercaseAccepted)
{
    AminoTokenizer tok;
    EXPECT_EQ(tok.residueId('m'), tok.residueId('M'));
}

TEST(Tokenizer, UnknownCharacterMapsToUnk)
{
    AminoTokenizer tok;
    EXPECT_EQ(tok.residueId('*'), kUnkToken);
    EXPECT_EQ(tok.residueId('1'), kUnkToken);
}

TEST(Tokenizer, PaddingToTargetLength)
{
    AminoTokenizer tok;
    const auto ids = tok.encode("ACD", 10);
    ASSERT_EQ(ids.size(), 10u);
    EXPECT_EQ(ids[0], kClsToken);
    EXPECT_EQ(ids[4], kSepToken);
    for (std::size_t i = 5; i < 10; ++i)
        EXPECT_EQ(ids[i], kPadToken);
}

TEST(Tokenizer, TruncationKeepsSep)
{
    AminoTokenizer tok;
    const auto ids = tok.encode("ACDEFGHIKL", 6);
    ASSERT_EQ(ids.size(), 6u);
    EXPECT_EQ(ids.front(), kClsToken);
    EXPECT_EQ(ids.back(), kSepToken);
}

TEST(Tokenizer, RoundTripDecode)
{
    AminoTokenizer tok;
    const std::string protein = "MEYQACDW";
    const auto ids = tok.encode(protein);
    ASSERT_EQ(ids.size(), protein.size() + 2);
    std::string decoded;
    for (std::size_t i = 1; i + 1 < ids.size(); ++i)
        decoded.push_back(tok.alphabet()[ids[i] - kMaskToken - 1]);
    EXPECT_EQ(decoded, protein);
}

TEST(Tokenizer, IsResidue)
{
    AminoTokenizer tok;
    EXPECT_NE(tok.residueId('W'), kUnkToken);
    EXPECT_NE(tok.residueId('X'), kUnkToken); // extended code
    EXPECT_EQ(tok.residueId('#'), kUnkToken);
}

TEST(Tokenizer, AllResidueIdsWithinVocab)
{
    AminoTokenizer tok;
    for (char residue : tok.alphabet())
        EXPECT_LT(tok.residueId(residue),
                  kMaskToken + 1 + tok.alphabet().size());
}

} // namespace
} // namespace prose
