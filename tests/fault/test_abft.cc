/** @file Tests for the Huang-Abraham ABFT checker. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.hh"
#include "fault/abft.hh"
#include "fault/fault_injector.hh"
#include "numerics/bfloat16.hh"
#include "numerics/kernels/kernel_dispatch.hh"

namespace prose {
namespace {

/**
 * The accumulator contents the array produces: bf16 x bf16 products
 * (exact in fp32) accumulated sequentially in fp32 along k.
 */
Matrix
arrayAccumulate(const Matrix &a, const Matrix &b)
{
    Matrix acc(a.rows(), b.cols(), 0.0f);
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < b.cols(); ++c) {
            float sum = 0.0f;
            for (std::size_t kk = 0; kk < a.cols(); ++kk)
                sum += quantizeBf16(a(r, kk)) * quantizeBf16(b(kk, c));
            acc(r, c) = sum;
        }
    }
    return acc;
}

struct Workload
{
    Matrix a, b, acc;
};

/** `m` with every element rounded through bfloat16. */
Matrix
quantized(Matrix m)
{
    std::transform(m.data(), m.data() + m.size(), m.data(), quantizeBf16);
    return m;
}

/** A tile whose operands hold the bf16 values the array streams. */
Workload
makeWorkload(Rng &rng, std::size_t m, std::size_t k, std::size_t n)
{
    Workload w;
    w.a = Matrix(m, k);
    w.b = Matrix(k, n);
    w.a.fillGaussian(rng, 0.0f, 1.0f);
    w.b.fillGaussian(rng, 0.0f, 1.0f);
    w.a = quantized(std::move(w.a));
    w.b = quantized(std::move(w.b));
    w.acc = arrayAccumulate(w.a, w.b);
    return w;
}

AbftPlane
planeOf(const Matrix &m)
{
    return AbftPlane{ m.data(), m.cols(), m.rows(), m.cols() };
}

/** Check (and repair) `acc` against operands that are already bf16. */
AbftTileResult
checkTile(AbftChecker &checker, const Matrix &a, const Matrix &b,
          Matrix &acc)
{
    const AbftPlane pb = planeOf(b);
    return checker.checkTile(planeOf(a), pb, abftPanelSums(pb), acc);
}

AbftChecker
enabledChecker()
{
    AbftOptions options;
    options.enabled = true;
    return AbftChecker(options);
}

TEST(Abft, CleanTileIsNotFlagged)
{
    Rng rng(1);
    Workload w = makeWorkload(rng, 64, 512, 64);
    AbftChecker checker = enabledChecker();
    const AbftTileResult result = checkTile(checker, w.a, w.b, w.acc);
    EXPECT_FALSE(result.flagged);
    EXPECT_TRUE(result.suspectRows.empty());
    EXPECT_TRUE(result.suspectCols.empty());
    EXPECT_EQ(checker.stats().tilesChecked, 1u);
    EXPECT_EQ(checker.stats().tilesFlagged, 0u);
}

TEST(Abft, SingleFlipIsLocatedAndCorrected)
{
    Rng rng(2);
    Workload w = makeWorkload(rng, 48, 256, 48);
    const float original = w.acc(17, 31);
    w.acc(17, 31) = flipFloatBit(original, 24);

    AbftChecker checker = enabledChecker();
    const AbftTileResult result = checkTile(checker, w.a, w.b, w.acc);
    EXPECT_TRUE(result.flagged);
    ASSERT_EQ(result.located.size(), 1u);
    EXPECT_EQ(result.located[0].first, 17u);
    EXPECT_EQ(result.located[0].second, 31u);
    ASSERT_EQ(result.corrected.size(), 1u);
    EXPECT_NEAR(w.acc(17, 31), original, 0.05f);
    EXPECT_EQ(checker.stats().locatedElements, 1u);
    EXPECT_EQ(checker.stats().correctedElements, 1u);
    EXPECT_EQ(checker.stats().unlocatedTiles, 0u);
}

TEST(Abft, LocatedCellIsRepairedFromItsRowChecksum)
{
    // Every uniquely located cell is repaired in place: its value is
    // rebuilt as the row's expected sum minus the healthy cells.
    Rng rng(3);
    Workload w = makeWorkload(rng, 32, 128, 32);
    const float original = w.acc(4, 7);
    w.acc(4, 7) = flipFloatBit(original, 28);

    AbftChecker checker = enabledChecker();
    const AbftTileResult result = checkTile(checker, w.a, w.b, w.acc);
    ASSERT_EQ(result.located.size(), 1u);
    EXPECT_EQ(result.corrected, result.located);
    EXPECT_NEAR(w.acc(4, 7), original, 0.05f);
    EXPECT_EQ(checker.stats().correctedElements, 1u);
}

TEST(Abft, InfCellIsLocatedAndRepaired)
{
    Rng rng(4);
    Workload w = makeWorkload(rng, 32, 128, 32);
    const float original = w.acc(9, 9);
    w.acc(9, 9) = std::numeric_limits<float>::infinity();

    AbftChecker checker = enabledChecker();
    const AbftTileResult result = checkTile(checker, w.a, w.b, w.acc);
    ASSERT_EQ(result.located.size(), 1u);
    EXPECT_EQ(result.located[0], (std::pair<std::size_t, std::size_t>{
                                     9u, 9u }));
    EXPECT_TRUE(std::isfinite(w.acc(9, 9)));
    EXPECT_NEAR(w.acc(9, 9), original, 0.05f);
}

TEST(Abft, TwoFlipsInDistinctRowsAndColsBothLocated)
{
    Rng rng(5);
    Workload w = makeWorkload(rng, 48, 192, 48);
    const float orig_a = w.acc(3, 40);
    const float orig_b = w.acc(30, 6);
    w.acc(3, 40) = flipFloatBit(orig_a, 26);
    w.acc(30, 6) = flipFloatBit(orig_b, 29);

    AbftChecker checker = enabledChecker();
    const AbftTileResult result = checkTile(checker, w.a, w.b, w.acc);
    ASSERT_EQ(result.located.size(), 2u);
    EXPECT_EQ(result.corrected.size(), 2u);
    EXPECT_NEAR(w.acc(3, 40), orig_a, 0.05f);
    EXPECT_NEAR(w.acc(30, 6), orig_b, 0.05f);
    EXPECT_EQ(checker.stats().ambiguousElements, 0u);
}

TEST(Abft, SameRowFlipsStayAmbiguousAndUncorrected)
{
    Rng rng(6);
    Workload w = makeWorkload(rng, 32, 128, 32);
    w.acc(12, 3) = flipFloatBit(w.acc(12, 3), 27);
    w.acc(12, 20) = flipFloatBit(w.acc(12, 20), 27);

    AbftChecker checker = enabledChecker();
    const AbftTileResult result = checkTile(checker, w.a, w.b, w.acc);
    EXPECT_TRUE(result.flagged);
    EXPECT_TRUE(result.corrected.empty());
    EXPECT_GT(checker.stats().ambiguousElements, 0u);
}

TEST(Abft, CoverageOfVisibleFlipsIsAtLeast99Percent)
{
    // The ISSUE acceptance bar: over a seeded campaign of single-bit
    // flips in the architecturally visible window [16, 31], at least
    // 99% must be detected AND located to the exact accumulator.
    Rng rng(2022);
    const int trials = 250;
    int located = 0;
    for (int t = 0; t < trials; ++t) {
        Workload w = makeWorkload(rng, 48, 256, 48);
        const std::size_t r = rng.below(48);
        const std::size_t c = rng.below(48);
        const std::uint32_t bit =
            16 + static_cast<std::uint32_t>(rng.below(16));
        w.acc(r, c) = flipFloatBit(w.acc(r, c), bit);

        AbftChecker checker = enabledChecker();
        const AbftTileResult result = checkTile(checker, w.a, w.b, w.acc);
        if (result.located.size() == 1 && result.located[0].first == r &&
            result.located[0].second == c)
            ++located;
    }
    EXPECT_GE(located, static_cast<int>(trials * 0.99))
        << "located only " << located << "/" << trials;
}

TEST(Abft, StatsAccumulateAcrossTilesAndReset)
{
    Rng rng(8);
    AbftChecker checker = enabledChecker();
    for (int t = 0; t < 3; ++t) {
        Workload w = makeWorkload(rng, 16, 64, 16);
        w.acc(1, 2) = flipFloatBit(w.acc(1, 2), 30);
        checkTile(checker, w.a, w.b, w.acc);
    }
    EXPECT_EQ(checker.stats().tilesChecked, 3u);
    EXPECT_EQ(checker.stats().tilesFlagged, 3u);
    EXPECT_EQ(checker.stats().locatedElements, 3u);
    EXPECT_DOUBLE_EQ(checker.stats().locateRate(), 1.0);
    checker.resetStats();
    EXPECT_EQ(checker.stats().tilesChecked, 0u);
}

TEST(Abft, PlaneCoreOnFusedPlanesMatchesTheMatrixWrapper)
{
    // The functional simulator checks tiles against its widened planes:
    // A quantized and widened whole (row tile tm at wa + tm*k, stride
    // k), B compacted one column panel at a time, with the panel's
    // column sums taken once for every row tile. That path must give
    // the verdicts, repairs and stats of the Matrix wrapper above
    // (checkTile on each tile's operands quantized one by one), bit for
    // bit — partial edge tiles and NaN/Inf cells included.
    const std::size_t m = 45, k = 70, n = 37, s = 16;
    Rng rng(13);
    Matrix a(m, k), b(k, n);
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);

    const kernels::KernelSet &ks = kernels::activeKernels();
    std::vector<std::uint16_t> qa(a.size()), qb(b.size());
    ks.quantizeBitsRow(qa.data(), a.data(), a.size());
    ks.quantizeBitsRow(qb.data(), b.data(), b.size());
    std::vector<float> wa(a.size()), wpb(k * s);
    ks.widenRow(wa.data(), qa.data(), a.size());

    AbftChecker plane_checker = enabledChecker();
    AbftChecker matrix_checker = enabledChecker();
    std::size_t tiles = 0, flagged = 0;
    for (std::size_t tn = 0; tn < n; tn += s) {
        const std::size_t cols = std::min(s, n - tn);
        for (std::size_t r = 0; r < k; ++r)
            ks.widenRow(wpb.data() + r * cols, qb.data() + r * n + tn,
                        cols);
        const AbftPlane b_plane{ wpb.data(), cols, k, cols };
        const AbftPanelSums b_sums = abftPanelSums(b_plane);
        for (std::size_t tm = 0; tm < m; tm += s, ++tiles) {
            const std::size_t rows = std::min(s, m - tm);
            Matrix a_tile(rows, k), b_tile(k, cols);
            for (std::size_t i = 0; i < rows; ++i)
                std::copy_n(a.row(tm + i), k, a_tile.row(i));
            for (std::size_t i = 0; i < k; ++i)
                std::copy_n(b.row(i) + tn, cols, b_tile.row(i));
            Matrix acc = arrayAccumulate(a_tile, b_tile);

            // Corrupt a seeded mix: clean tiles, single flips, NaN and
            // Inf cells, and same-row pairs that stay ambiguous.
            switch (tiles % 5) {
              case 1:
                acc(rng.below(rows), rng.below(cols)) =
                    std::numeric_limits<float>::quiet_NaN();
                break;
              case 2:
                acc(rng.below(rows), rng.below(cols)) =
                    -std::numeric_limits<float>::infinity();
                break;
              case 3: {
                const std::size_t r = rng.below(rows);
                acc(r, 0) = flipFloatBit(acc(r, 0), 27);
                acc(r, cols - 1) = flipFloatBit(acc(r, cols - 1), 29);
                break;
              }
              case 4: {
                const std::size_t r = rng.below(rows);
                const std::size_t c = rng.below(cols);
                acc(r, c) = flipFloatBit(
                    acc(r, c),
                    16 + static_cast<std::uint32_t>(rng.below(16)));
                break;
              }
              default:
                break;
            }

            Matrix plane_acc = acc;
            const AbftTileResult got = plane_checker.checkTile(
                AbftPlane{ wa.data() + tm * k, k, rows, k }, b_plane,
                b_sums, plane_acc);
            const AbftTileResult want =
                checkTile(matrix_checker, quantized(a_tile),
                          quantized(b_tile), acc);
            flagged += want.flagged;
            EXPECT_EQ(got.flagged, want.flagged) << tm << "," << tn;
            EXPECT_EQ(got.suspectRows, want.suspectRows);
            EXPECT_EQ(got.suspectCols, want.suspectCols);
            EXPECT_EQ(got.located, want.located);
            EXPECT_EQ(got.corrected, want.corrected);
            EXPECT_EQ(std::memcmp(plane_acc.data(), acc.data(),
                                  acc.size() * sizeof(float)),
                      0)
                << "repaired accumulators differ at tile " << tm << ","
                << tn;
        }
    }
    EXPECT_GT(flagged, 0u);
    const AbftStats &ps = plane_checker.stats();
    const AbftStats &ms = matrix_checker.stats();
    EXPECT_EQ(ps.tilesChecked, tiles);
    EXPECT_EQ(ps.tilesChecked, ms.tilesChecked);
    EXPECT_EQ(ps.tilesFlagged, ms.tilesFlagged);
    EXPECT_EQ(ps.locatedElements, ms.locatedElements);
    EXPECT_EQ(ps.ambiguousElements, ms.ambiguousElements);
    EXPECT_EQ(ps.correctedElements, ms.correctedElements);
    EXPECT_EQ(ps.unlocatedTiles, ms.unlocatedTiles);
}

} // namespace
} // namespace prose
