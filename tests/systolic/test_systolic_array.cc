/** @file Tests for the cycle-stepped systolic array in matmul mode. */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "numerics/bfloat16.hh"
#include "numerics/matrix.hh"
#include "systolic/systolic_array.hh"

namespace prose {
namespace {

Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix m(rows, cols);
    m.fillGaussian(rng, 0.0f, 1.0f);
    return m;
}

/** Reference: what the fp32 accumulators should hold. */
Matrix
accumulatorReference(const Matrix &a, const Matrix &b)
{
    return matmulBf16(a, b);
}

TEST(SystolicMatmul, FullTileBitExact)
{
    Rng rng(1);
    SystolicArray array(ArrayGeometry::mType(8));
    const Matrix a = randomMatrix(rng, 8, 12);
    const Matrix b = randomMatrix(rng, 12, 8);
    array.matmulTile(a, b);
    EXPECT_EQ(Matrix::maxAbsDiff(array.accumulators(),
                                 accumulatorReference(a, b)),
              0.0f);
}

TEST(SystolicMatmul, PartialTileBitExact)
{
    Rng rng(2);
    SystolicArray array(ArrayGeometry::mType(8));
    const Matrix a = randomMatrix(rng, 5, 9);
    const Matrix b = randomMatrix(rng, 9, 3);
    array.matmulTile(a, b);
    EXPECT_EQ(Matrix::maxAbsDiff(array.accumulators(),
                                 accumulatorReference(a, b)),
              0.0f);
}

TEST(SystolicMatmul, RandomShapesProperty)
{
    // Property: for random tile shapes on random array sizes, the
    // cycle-stepped accumulators equal the bf16 reference bit-for-bit.
    Rng rng(3);
    for (int trial = 0; trial < 25; ++trial) {
        const std::size_t n = 2 + rng.below(15);
        const std::size_t rows = 1 + rng.below(n);
        const std::size_t cols = 1 + rng.below(n);
        const std::size_t k = 1 + rng.below(40);
        SystolicArray array(
            ArrayGeometry::mType(static_cast<std::uint32_t>(n)));
        const Matrix a = randomMatrix(rng, rows, k);
        const Matrix b = randomMatrix(rng, k, cols);
        array.matmulTile(a, b);
        EXPECT_EQ(Matrix::maxAbsDiff(array.accumulators(),
                                     accumulatorReference(a, b)),
                  0.0f)
            << "n=" << n << " rows=" << rows << " cols=" << cols
            << " k=" << k;
    }
}

TEST(SystolicMatmul, OutputStationaryAccumulationAcrossKTiles)
{
    // Split the k dimension into two tile passes; accumulators must hold
    // the sum — the defining property of the output-stationary design.
    Rng rng(4);
    SystolicArray array(ArrayGeometry::mType(6));
    const Matrix a = randomMatrix(rng, 6, 20);
    const Matrix b = randomMatrix(rng, 20, 6);

    auto block = [](const Matrix &m, std::size_t r0, std::size_t c0,
                    std::size_t rows, std::size_t cols) {
        Matrix out(rows, cols);
        for (std::size_t i = 0; i < rows; ++i)
            for (std::size_t j = 0; j < cols; ++j)
                out(i, j) = m(r0 + i, c0 + j);
        return out;
    };
    const Matrix a1 = block(a, 0, 0, 6, 10);
    const Matrix a2 = block(a, 0, 10, 6, 10);
    const Matrix b1 = block(b, 0, 0, 10, 6);
    const Matrix b2 = block(b, 10, 0, 10, 6);
    array.matmulTile(a1, b1);
    array.matmulTile(a2, b2);

    // The array accumulates per-PE in increasing-k order, which is
    // exactly the reference matmul's summation order over the full k —
    // so the comparison is bit-exact against the unsplit product.
    const Matrix expected = accumulatorReference(a, b);
    EXPECT_EQ(Matrix::maxAbsDiff(array.accumulators(), expected), 0.0f);
}

TEST(SystolicMatmul, CycleCountMatchesClosedForm)
{
    // Unstalled wavefront count is k + rows + cols - 2.
    Rng rng(5);
    for (int trial = 0; trial < 15; ++trial) {
        const std::size_t n = 2 + rng.below(10);
        const std::size_t rows = 1 + rng.below(n);
        const std::size_t cols = 1 + rng.below(n);
        const std::size_t k = 1 + rng.below(30);
        SystolicArray array(
            ArrayGeometry::mType(static_cast<std::uint32_t>(n)));
        const std::uint64_t cycles = array.matmulTile(
            randomMatrix(rng, rows, k), randomMatrix(rng, k, cols));
        EXPECT_EQ(cycles, k + rows + cols - 2);
        EXPECT_EQ(array.stallCycles(), 0u);
    }
}

TEST(SystolicMatmul, MacCountEqualsUsefulWork)
{
    Rng rng(6);
    SystolicArray array(ArrayGeometry::mType(4));
    array.matmulTile(randomMatrix(rng, 3, 7), randomMatrix(rng, 7, 4));
    EXPECT_EQ(array.macCount(), 3u * 7u * 4u);
}

TEST(SystolicMatmul, StallsWhenSupplyStarved)
{
    // Supply at half an entry per cycle: the array must stall roughly
    // every other cycle while injections are active.
    Rng rng(7);
    SystolicArray slow(ArrayGeometry::mType(4), 0.5, 0.5);
    const Matrix a = randomMatrix(rng, 4, 16);
    const Matrix b = randomMatrix(rng, 16, 4);
    const std::uint64_t cycles = slow.matmulTile(a, b);
    EXPECT_GT(slow.stallCycles(), 0u);
    EXPECT_GT(cycles, 16u + 4 + 4 - 2);
    // Correctness is unaffected by stalling.
    EXPECT_EQ(Matrix::maxAbsDiff(slow.accumulators(),
                                 accumulatorReference(a, b)),
              0.0f);
}

TEST(SystolicMatmul, AmpleSupplyNeverStalls)
{
    Rng rng(8);
    SystolicArray fast(ArrayGeometry::mType(4), 2.0, 2.0);
    fast.matmulTile(randomMatrix(rng, 4, 32), randomMatrix(rng, 32, 4));
    EXPECT_EQ(fast.stallCycles(), 0u);
}

TEST(SystolicMatmul, ClearResetsState)
{
    Rng rng(9);
    SystolicArray array(ArrayGeometry::mType(4));
    array.matmulTile(randomMatrix(rng, 4, 4), randomMatrix(rng, 4, 4));
    array.clearAccumulators();
    const Matrix a = randomMatrix(rng, 2, 6);
    const Matrix b = randomMatrix(rng, 6, 3);
    array.matmulTile(a, b);
    EXPECT_EQ(Matrix::maxAbsDiff(array.accumulators(),
                                 accumulatorReference(a, b)),
              0.0f);
}

TEST(SystolicMatmul, ElapsedTimeUsesMatmulClock)
{
    Rng rng(10);
    ArrayGeometry geom = ArrayGeometry::mType(4);
    SystolicArray array(geom);
    const std::uint64_t cycles =
        array.matmulTile(randomMatrix(rng, 4, 8), randomMatrix(rng, 8, 4));
    EXPECT_DOUBLE_EQ(array.elapsedSeconds(),
                     static_cast<double>(cycles) / geom.matmulClockHz);
}

TEST(SystolicMatmulDeathTest, OversizedTilePanics)
{
    Rng rng(11);
    SystolicArray array(ArrayGeometry::mType(4));
    EXPECT_DEATH(array.matmulTile(randomMatrix(rng, 5, 4),
                                  randomMatrix(rng, 4, 4)),
                 "exceeds");
}

TEST(SystolicMatmulDeathTest, InnerDimMismatchPanics)
{
    Rng rng(12);
    SystolicArray array(ArrayGeometry::mType(4));
    EXPECT_DEATH(array.matmulTile(randomMatrix(rng, 4, 5),
                                  randomMatrix(rng, 6, 4)),
                 "mismatch");
}

} // namespace
} // namespace prose
