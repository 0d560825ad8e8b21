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
#include "numerics/float_bits.hh"
#include "numerics/kernels/kernel_dispatch.hh"
#include "numerics/matrix.hh"

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

/** Write a verdict's repairs into `acc`, as the simulator's repair
 *  port does. */
void
applyRepairs(const AbftTileResult &result, Matrix &acc)
{
    ASSERT_EQ(result.repairs.size(), result.corrected.size());
    for (std::size_t i = 0; i < result.corrected.size(); ++i)
        acc(result.corrected[i].first, result.corrected[i].second) =
            result.repairs[i];
}

/** Check (and repair) `acc` against operands that are already bf16. */
AbftTileResult
checkTile(AbftChecker &checker, const Matrix &a, const Matrix &b,
          Matrix &acc)
{
    std::vector<double> a_sums(2 * a.cols()), b_sums(2 * b.rows());
    const AbftPlane pa = planeOf(a);
    const AbftPlane pb = planeOf(b);
    const AbftTileResult result =
        checker.checkTile(pa, abftRowBlockSums(pa, a_sums.data()), pb,
                          abftPanelSums(pb, b_sums.data()), planeOf(acc));
    applyRepairs(result, acc);
    return result;
}

/**
 * The checker as it was before its sums moved onto the kernel layer:
 * one scalar double add chain per output, the A row-block sums taken
 * per tile, repairs written into `acc`. The kernels must reproduce its
 * verdicts, repairs and stats bit for bit on every tier.
 */
class ReferenceChecker
{
  public:
    struct PanelSums
    {
        std::vector<double> colSum;
        std::vector<double> absColSum;
    };

    static PanelSums
    panelSums(const Matrix &b)
    {
        PanelSums sums{ std::vector<double>(b.rows(), 0.0),
                        std::vector<double>(b.rows(), 0.0) };
        for (std::size_t kk = 0; kk < b.rows(); ++kk) {
            for (std::size_t j = 0; j < b.cols(); ++j) {
                const double v = b(kk, j);
                sums.colSum[kk] += v;
                sums.absColSum[kk] += std::fabs(v);
            }
        }
        return sums;
    }

    AbftTileResult
    checkTile(const Matrix &a, const Matrix &b, const PanelSums &b_sums,
              Matrix &acc)
    {
        constexpr double kRelTolerance = 2e-7;
        const std::size_t rows = acc.rows();
        const std::size_t cols = acc.cols();
        const std::size_t k = a.cols();
        AbftTileResult result;
        ++stats_.tilesChecked;

        std::vector<double> row_sum_a(k, 0.0), abs_row_sum_a(k, 0.0);
        for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t kk = 0; kk < k; ++kk) {
                const double v = a(i, kk);
                row_sum_a[kk] += v;
                abs_row_sum_a[kk] += std::fabs(v);
            }
        }

        std::vector<double> row_expected(rows, 0.0);
        std::vector<double> row_residual(rows, 0.0), row_mass(rows, 0.0);
        for (std::size_t r = 0; r < rows; ++r) {
            double expected = 0.0, mass = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk) {
                const double v = a(r, kk);
                expected += v * b_sums.colSum[kk];
                mass += std::fabs(v) * b_sums.absColSum[kk];
            }
            double actual = 0.0;
            for (std::size_t j = 0; j < cols; ++j)
                actual += acc(r, j);
            row_expected[r] = expected;
            row_residual[r] = expected - actual;
            row_mass[r] = mass;
            if (!(std::fabs(row_residual[r]) <= kRelTolerance * mass))
                result.suspectRows.push_back(r);
        }

        std::vector<double> col_expected(cols, 0.0), col_actual(cols, 0.0);
        std::vector<double> col_residual(cols, 0.0), col_mass(cols, 0.0);
        for (std::size_t kk = 0; kk < k; ++kk) {
            for (std::size_t c = 0; c < cols; ++c) {
                const double v = b(kk, c);
                col_expected[c] += row_sum_a[kk] * v;
                col_mass[c] += abs_row_sum_a[kk] * std::fabs(v);
            }
        }
        for (std::size_t i = 0; i < rows; ++i)
            for (std::size_t c = 0; c < cols; ++c)
                col_actual[c] += acc(i, c);
        for (std::size_t c = 0; c < cols; ++c) {
            col_residual[c] = col_expected[c] - col_actual[c];
            if (!(std::fabs(col_residual[c]) <= kRelTolerance * col_mass[c]))
                result.suspectCols.push_back(c);
        }

        result.flagged =
            !result.suspectRows.empty() || !result.suspectCols.empty();
        if (!result.flagged)
            return result;
        ++stats_.tilesFlagged;

        bool any_unlocated = result.suspectRows.empty();
        std::uint64_t exact = 0, ambiguous = 0;
        for (const std::size_t r : result.suspectRows) {
            std::vector<std::size_t> candidates;
            for (const std::size_t c : result.suspectCols) {
                const double skew =
                    std::fabs(row_residual[r] - col_residual[c]);
                if (skew <= kRelTolerance * (row_mass[r] + col_mass[c]))
                    candidates.push_back(c);
            }
            if (candidates.empty() && result.suspectCols.size() == 1)
                candidates = result.suspectCols;

            if (candidates.size() == 1) {
                const std::size_t c = candidates.front();
                result.located.emplace_back(r, c);
                ++exact;
                double others = 0.0;
                for (std::size_t j = 0; j < cols; ++j)
                    if (j != c)
                        others += acc(r, j);
                acc(r, c) = static_cast<float>(row_expected[r] - others);
                result.corrected.emplace_back(r, c);
                result.repairs.push_back(acc(r, c));
            } else if (!candidates.empty()) {
                for (const std::size_t c : candidates) {
                    result.located.emplace_back(r, c);
                    ++ambiguous;
                }
            } else if (!result.suspectCols.empty()) {
                for (const std::size_t c : result.suspectCols) {
                    result.located.emplace_back(r, c);
                    ++ambiguous;
                }
            } else {
                any_unlocated = true;
            }
        }
        if (any_unlocated)
            ++stats_.unlocatedTiles;
        stats_.locatedElements += exact;
        stats_.ambiguousElements += ambiguous;
        stats_.correctedElements += result.corrected.size();
        return result;
    }

    const AbftStats &stats() const { return stats_; }

  private:
    AbftStats stats_;
};

void
expectSameStats(const AbftStats &got, const AbftStats &want)
{
    EXPECT_EQ(got.tilesChecked, want.tilesChecked);
    EXPECT_EQ(got.tilesFlagged, want.tilesFlagged);
    EXPECT_EQ(got.locatedElements, want.locatedElements);
    EXPECT_EQ(got.ambiguousElements, want.ambiguousElements);
    EXPECT_EQ(got.correctedElements, want.correctedElements);
    EXPECT_EQ(got.unlocatedTiles, want.unlocatedTiles);
}

void
expectSameVerdict(const AbftTileResult &got, const AbftTileResult &want)
{
    EXPECT_EQ(got.flagged, want.flagged);
    EXPECT_EQ(got.suspectRows, want.suspectRows);
    EXPECT_EQ(got.suspectCols, want.suspectCols);
    EXPECT_EQ(got.located, want.located);
    EXPECT_EQ(got.corrected, want.corrected);
    ASSERT_EQ(got.repairs.size(), want.repairs.size());
    for (std::size_t i = 0; i < got.repairs.size(); ++i)
        EXPECT_EQ(floatBits(got.repairs[i]), floatBits(want.repairs[i]))
            << "repair " << i;
}

TEST(Abft, CleanTileIsNotFlagged)
{
    Rng rng(1);
    Workload w = makeWorkload(rng, 64, 512, 64);
    AbftChecker checker;
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

    AbftChecker checker;
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

    AbftChecker checker;
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

    AbftChecker checker;
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

    AbftChecker checker;
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

    AbftChecker checker;
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

        AbftChecker checker;
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
    AbftChecker checker;
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
    // k) with each row block's sums taken once, B compacted one column
    // panel at a time with the panel's sums taken once for every row
    // tile, and the accumulators read through a view whose repairs the
    // caller writes back. That path must give
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

    // Each A row block's sums once, as the simulator takes them.
    std::vector<double> a_sums((m + s - 1) / s * 2 * k), b_sums(2 * k);
    for (std::size_t tm = 0; tm < m; tm += s)
        abftRowBlockSums(AbftPlane{ wa.data() + tm * k, k,
                                    std::min(s, m - tm), k },
                         a_sums.data() + tm / s * 2 * k);

    AbftChecker plane_checker;
    AbftChecker matrix_checker;
    std::size_t tiles = 0, flagged = 0;
    for (std::size_t tn = 0; tn < n; tn += s) {
        const std::size_t cols = std::min(s, n - tn);
        for (std::size_t r = 0; r < k; ++r)
            ks.widenRow(wpb.data() + r * cols, qb.data() + r * n + tn,
                        cols);
        const AbftPlane b_plane{ wpb.data(), cols, k, cols };
        const AbftSums b_panel_sums = abftPanelSums(b_plane, b_sums.data());
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
            const double *a_block = a_sums.data() + tm / s * 2 * k;
            const AbftTileResult got = plane_checker.checkTile(
                AbftPlane{ wa.data() + tm * k, k, rows, k },
                AbftSums{ a_block, a_block + k }, b_plane, b_panel_sums,
                planeOf(plane_acc));
            applyRepairs(got, plane_acc);
            const AbftTileResult want =
                checkTile(matrix_checker, quantized(a_tile),
                          quantized(b_tile), acc);
            flagged += want.flagged;
            EXPECT_EQ(got.flagged, want.flagged) << tm << "," << tn;
            EXPECT_EQ(got.suspectRows, want.suspectRows);
            EXPECT_EQ(got.suspectCols, want.suspectCols);
            EXPECT_EQ(got.located, want.located);
            EXPECT_EQ(got.corrected, want.corrected);
            EXPECT_EQ(got.repairs, want.repairs);
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

TEST(Abft, KernelChecksumsMatchTheScalarReferenceOnEveryTier)
{
    // The checker on the kernel layer against the scalar checker it
    // replaced (ReferenceChecker): identical suspects, located and
    // corrected cells, repaired bits and stats on every compiled tier.
    // Tiles at the three array dimensions the functional simulator
    // uses, full and ragged, at depths up to BERT-base's hidden size;
    // clean tiles and NaN, Inf, single-flip and same-row corruption.
    const kernels::SimdTier original = kernels::activeSimdTier();
    std::vector<kernels::SimdTier> tiers;
    for (kernels::SimdTier tier :
         { kernels::SimdTier::Scalar, kernels::SimdTier::Avx2,
           kernels::SimdTier::Avx512 })
        if (kernels::simdTierAvailable(tier))
            tiers.push_back(tier);

    enum Corruption
    {
        Clean,
        NanCell,
        InfCell,
        SingleFlip,
        SameRowFlips,
        kCorruptions
    };
    for (std::size_t dim : { 16, 32, 64 }) {
        for (std::size_t k : { 17, 64, 128, 256, 768 }) {
            // A full tile, and a ragged edge tile that fills neither
            // dimension.
            const std::pair<std::size_t, std::size_t> shapes[] = {
                { dim, dim }, { dim / 2 + 3, dim - 5 }
            };
            for (const auto &[rows, cols] : shapes) {
                Rng rng(dim * 1000 + k + rows);
                const Workload w = makeWorkload(rng, rows, k, cols);
                for (int kind = Clean; kind < kCorruptions; ++kind) {
                    SCOPED_TRACE(::testing::Message()
                                 << "dim " << dim << " k " << k << " tile "
                                 << rows << "x" << cols << " corruption "
                                 << kind);
                    Matrix corrupt = w.acc;
                    const std::size_t r = rng.below(rows);
                    const std::size_t c = rng.below(cols);
                    switch (kind) {
                      case NanCell:
                        corrupt(r, c) =
                            std::numeric_limits<float>::quiet_NaN();
                        break;
                      case InfCell:
                        corrupt(r, c) =
                            std::numeric_limits<float>::infinity();
                        break;
                      case SingleFlip:
                        corrupt(r, c) = flipFloatBit(
                            corrupt(r, c),
                            16 + static_cast<std::uint32_t>(rng.below(16)));
                        break;
                      case SameRowFlips:
                        corrupt(r, 0) = flipFloatBit(corrupt(r, 0), 27);
                        corrupt(r, cols - 1) =
                            flipFloatBit(corrupt(r, cols - 1), 29);
                        break;
                      default:
                        break;
                    }

                    ReferenceChecker reference;
                    Matrix want_acc = corrupt;
                    const AbftTileResult want = reference.checkTile(
                        w.a, w.b, ReferenceChecker::panelSums(w.b),
                        want_acc);
                    EXPECT_EQ(want.flagged, kind != Clean);
                    for (kernels::SimdTier tier : tiers) {
                        kernels::setActiveSimdTier(tier);
                        SCOPED_TRACE(kernels::toString(tier));
                        AbftChecker checker;
                        Matrix got_acc = corrupt;
                        const AbftTileResult got =
                            checkTile(checker, w.a, w.b, got_acc);
                        expectSameVerdict(got, want);
                        expectSameStats(checker.stats(), reference.stats());
                        EXPECT_EQ(std::memcmp(got_acc.data(),
                                              want_acc.data(),
                                              got_acc.size() *
                                                  sizeof(float)),
                                  0);
                    }
                }
            }
        }
    }
    kernels::setActiveSimdTier(original);
}

} // namespace
} // namespace prose
