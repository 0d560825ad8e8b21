/** @file Parameterized property sweeps over systolic array geometries:
 *  every invariant must hold for every array size the DSE can pick. */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "numerics/bfloat16.hh"
#include "systolic/systolic_array.hh"
#include "systolic/timing_model.hh"
#include "live_accumulators.hh"

namespace prose {
namespace {

class ArrayDimSweep : public ::testing::TestWithParam<std::uint32_t>
{
  protected:
    Matrix
    randomMatrix(std::size_t rows, std::size_t cols)
    {
        Matrix m(rows, cols);
        m.fillGaussian(rng_, 0.0f, 1.0f);
        return m;
    }

    Rng rng_{ 0xabcdef };
};

TEST_P(ArrayDimSweep, MatmulBitExactAtFullTile)
{
    const std::uint32_t dim = GetParam();
    SystolicArray array(ArrayGeometry::mType(dim));
    const Matrix a = randomMatrix(dim, 3 * dim + 1);
    const Matrix b = randomMatrix(3 * dim + 1, dim);
    array.matmulTile(a, b);
    EXPECT_EQ(Matrix::maxAbsDiff(accumulatorsOf(array), matmulBf16(a, b)),
              0.0f);
}

TEST_P(ArrayDimSweep, MatmulBitExactAtRaggedTile)
{
    const std::uint32_t dim = GetParam();
    if (dim < 2)
        GTEST_SKIP();
    SystolicArray array(ArrayGeometry::mType(dim));
    const Matrix a = randomMatrix(dim - 1, 2 * dim + 3);
    const Matrix b = randomMatrix(2 * dim + 3, dim / 2 + 1);
    array.matmulTile(a, b);
    EXPECT_EQ(Matrix::maxAbsDiff(accumulatorsOf(array), matmulBf16(a, b)),
              0.0f);
}

TEST_P(ArrayDimSweep, CycleFormulaHolds)
{
    const std::uint32_t dim = GetParam();
    SystolicArray array(ArrayGeometry::mType(dim));
    const std::size_t k = 2 * dim + 5;
    const std::uint64_t cycles =
        array.matmulTile(randomMatrix(dim, k), randomMatrix(k, dim));
    EXPECT_EQ(cycles, TimingModel::matmulCycles(dim, k, dim, dim));
}

TEST_P(ArrayDimSweep, SimdPassTakesLiveColumnCycles)
{
    const std::uint32_t dim = GetParam();
    SystolicArray array(ArrayGeometry::mType(dim));
    array.matmulTile(randomMatrix(dim, 4), randomMatrix(4, dim));
    EXPECT_EQ(array.simdScalar(SimdOp::AddScalar, 1.0f), dim);
}

TEST_P(ArrayDimSweep, MulAddEquivalentAcrossSizes)
{
    // The same fused MulAdd computed on arrays of different sizes must
    // produce identical bits (the numerics are size-independent).
    const std::uint32_t dim = GetParam();
    const std::size_t m = 12, k = 9, n = 10;
    Rng rng(77);
    Matrix a(m, k), b(k, n), addend(m, n);
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    addend.fillGaussian(rng, 0.0f, 1.0f);

    auto run = [&](std::uint32_t s) {
        SystolicArray array(ArrayGeometry::mType(s));
        Matrix out(m, n);
        for (std::size_t tm = 0; tm < m; tm += s) {
            const std::size_t rows = std::min<std::size_t>(s, m - tm);
            for (std::size_t tn = 0; tn < n; tn += s) {
                const std::size_t cols =
                    std::min<std::size_t>(s, n - tn);
                Matrix a_tile(rows, k), b_tile(k, cols),
                    add_tile(rows, cols);
                for (std::size_t i = 0; i < rows; ++i)
                    for (std::size_t j = 0; j < k; ++j)
                        a_tile(i, j) = a(tm + i, j);
                for (std::size_t i = 0; i < k; ++i)
                    for (std::size_t j = 0; j < cols; ++j)
                        b_tile(i, j) = b(i, tn + j);
                for (std::size_t i = 0; i < rows; ++i)
                    for (std::size_t j = 0; j < cols; ++j)
                        add_tile(i, j) = addend(tm + i, tn + j);
                array.matmulTile(a_tile, b_tile);
                array.simdScalar(SimdOp::MulScalar, 0.5f);
                array.simdVector(SimdOp::AddVector, add_tile);
                Matrix tile_out;
                array.drain(tile_out);
                for (std::size_t i = 0; i < rows; ++i)
                    for (std::size_t j = 0; j < cols; ++j)
                        out(tm + i, tn + j) = tile_out(i, j);
            }
        }
        return out;
    };

    const Matrix reference = run(16);
    const Matrix got = run(dim);
    EXPECT_EQ(Matrix::maxAbsDiff(got, reference), 0.0f)
        << "dim=" << dim;
}

TEST_P(ArrayDimSweep, StallingNeverChangesResults)
{
    const std::uint32_t dim = GetParam();
    const Matrix a = randomMatrix(dim, dim + 7);
    const Matrix b = randomMatrix(dim + 7, dim);

    SystolicArray fast(ArrayGeometry::mType(dim));
    SystolicArray slow(ArrayGeometry::mType(dim), 0.3, 0.7);
    fast.matmulTile(a, b);
    slow.matmulTile(a, b);
    EXPECT_EQ(Matrix::maxAbsDiff(accumulatorsOf(fast),
                                 accumulatorsOf(slow)),
              0.0f);
    EXPECT_GT(slow.stallCycles(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, ArrayDimSweep,
                         ::testing::Values(2u, 3u, 4u, 5u, 8u, 11u, 16u),
                         [](const auto &param_info) {
                             return "dim" + std::to_string(param_info.param);
                         });

/** Sweep the SIMD special functions across LUT-equipped sizes. */
class LutArraySweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(LutArraySweep, GeluAndExpPassesRunOnTheirTypes)
{
    const std::uint32_t dim = GetParam();
    Rng rng(5);
    Matrix a(dim, 4), b(4, dim);
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);

    SystolicArray g(ArrayGeometry::gType(dim));
    g.matmulTile(a, b);
    EXPECT_EQ(g.simdSpecial(SimdOp::Gelu), dim);

    SystolicArray e(ArrayGeometry::eType(dim));
    e.matmulTile(a, b);
    EXPECT_EQ(e.simdSpecial(SimdOp::Exp), dim);
}

INSTANTIATE_TEST_SUITE_P(LutGeometries, LutArraySweep,
                         ::testing::Values(4u, 16u, 32u),
                         [](const auto &param_info) {
                             return "dim" + std::to_string(param_info.param);
                         });

} // namespace
} // namespace prose
