/** @file Tests for simd mode: left rotation, SIMD ALU ops, LUT passes,
 *  drain semantics (Figures 5(c) and 12). */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "numerics/activations.hh"
#include "numerics/bfloat16.hh"
#include "numerics/lut.hh"
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

/** Load a product into the accumulators and return its reference. */
Matrix
loadTile(SystolicArray &array, Rng &rng, std::size_t rows,
         std::size_t cols, std::size_t k)
{
    const Matrix a = randomMatrix(rng, rows, k);
    const Matrix b = randomMatrix(rng, k, cols);
    array.matmulTile(a, b);
    return matmulBf16(a, b);
}

/** Expected accumulator contents after one scalar/vector ALU pass. */
Matrix
aluReference(const Matrix &acc, SimdOp op, float scalar,
             const Matrix *operand)
{
    Matrix out(acc.rows(), acc.cols());
    for (std::size_t i = 0; i < acc.rows(); ++i) {
        for (std::size_t j = 0; j < acc.cols(); ++j) {
            const float x = truncateBf16(acc(i, j));
            float rhs = scalar;
            if (operand)
                rhs = (*operand)(i, j);
            switch (op) {
              case SimdOp::MulScalar:
              case SimdOp::MulVector:
                out(i, j) = quantizeBf16(x * quantizeBf16(rhs));
                break;
              case SimdOp::AddScalar:
              case SimdOp::AddVector:
                out(i, j) = quantizeBf16(x + quantizeBf16(rhs));
                break;
              default:
                out(i, j) = x;
            }
        }
    }
    return out;
}

TEST(SimdMode, MulScalarRotationPreservesLayout)
{
    Rng rng(1);
    SystolicArray array(ArrayGeometry::mType(6));
    const Matrix acc = loadTile(array, rng, 6, 6, 10);
    const std::uint64_t cycles = array.simdScalar(SimdOp::MulScalar, 2.5f);
    // One rotation pass = live-column count cycles.
    EXPECT_EQ(cycles, 6u);
    EXPECT_EQ(Matrix::maxAbsDiff(
                  array.accumulators(),
                  aluReference(acc, SimdOp::MulScalar, 2.5f, nullptr)),
              0.0f);
}

TEST(SimdMode, AddScalar)
{
    Rng rng(2);
    SystolicArray array(ArrayGeometry::mType(5));
    const Matrix acc = loadTile(array, rng, 5, 5, 7);
    array.simdScalar(SimdOp::AddScalar, -1.25f);
    EXPECT_EQ(Matrix::maxAbsDiff(
                  array.accumulators(),
                  aluReference(acc, SimdOp::AddScalar, -1.25f, nullptr)),
              0.0f);
}

TEST(SimdMode, AddVectorStreamsColumnsInOriginalOrder)
{
    Rng rng(3);
    SystolicArray array(ArrayGeometry::mType(6));
    const Matrix acc = loadTile(array, rng, 6, 6, 9);
    const Matrix operand = randomMatrix(rng, 6, 6);
    array.simdVector(SimdOp::AddVector, operand);
    EXPECT_EQ(Matrix::maxAbsDiff(
                  array.accumulators(),
                  aluReference(acc, SimdOp::AddVector, 0.0f, &operand)),
              0.0f);
}

TEST(SimdMode, MulAddSequenceMatchesPaperPrimitive)
{
    // MulAdd C = alpha*A + B as the hardware performs it: a MUL pass
    // with the broadcast scalar, then an ADD pass with the streamed
    // vector operand (Figure 12(b)).
    Rng rng(4);
    SystolicArray array(ArrayGeometry::mType(4));
    const Matrix acc = loadTile(array, rng, 4, 4, 6);
    const Matrix b = randomMatrix(rng, 4, 4);
    array.simdScalar(SimdOp::MulScalar, 0.5f);
    array.simdVector(SimdOp::AddVector, b);

    Matrix expected(4, 4);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j) {
            const float scaled = quantizeBf16(
                truncateBf16(acc(i, j)) * quantizeBf16(0.5f));
            expected(i, j) = quantizeBf16(truncateBf16(scaled) +
                                          quantizeBf16(b(i, j)));
        }
    EXPECT_EQ(Matrix::maxAbsDiff(array.accumulators(), expected), 0.0f);
}

TEST(SimdMode, PartialTileRotatesOnlyLiveRegion)
{
    Rng rng(5);
    SystolicArray array(ArrayGeometry::mType(8));
    const Matrix acc = loadTile(array, rng, 3, 5, 6);
    const std::uint64_t cycles = array.simdScalar(SimdOp::MulScalar, 3.0f);
    EXPECT_EQ(cycles, 5u); // live columns, not the full array width
    EXPECT_EQ(Matrix::maxAbsDiff(
                  array.accumulators(),
                  aluReference(acc, SimdOp::MulScalar, 3.0f, nullptr)),
              0.0f);
}

TEST(SimdMode, GeluPassMatchesLut)
{
    Rng rng(6);
    SystolicArray array(ArrayGeometry::gType(6));
    const Matrix acc = loadTile(array, rng, 6, 6, 8);
    array.simdSpecial(SimdOp::Gelu);

    const TwoLevelLut &lut = geluLut();
    const Matrix got = array.accumulators();
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j)
            EXPECT_EQ(got(i, j),
                      lut.lookup(truncateToBf16(acc(i, j))).toFloat());
}

TEST(SimdMode, ExpPassMatchesLut)
{
    Rng rng(7);
    SystolicArray array(ArrayGeometry::eType(5));
    const Matrix acc = loadTile(array, rng, 5, 5, 4);
    array.simdSpecial(SimdOp::Exp);

    const TwoLevelLut &lut = expLut();
    const Matrix got = array.accumulators();
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            EXPECT_EQ(got(i, j),
                      lut.lookup(truncateToBf16(acc(i, j))).toFloat());
}

TEST(SimdModeDeathTest, GeluOnMTypePanics)
{
    Rng rng(8);
    SystolicArray array(ArrayGeometry::mType(4));
    loadTile(array, rng, 4, 4, 4);
    EXPECT_DEATH(array.simdSpecial(SimdOp::Gelu), "without GELU");
}

TEST(SimdModeDeathTest, ExpOnGTypePanics)
{
    Rng rng(9);
    SystolicArray array(ArrayGeometry::gType(4));
    loadTile(array, rng, 4, 4, 4);
    EXPECT_DEATH(array.simdSpecial(SimdOp::Exp), "without Exp");
}

TEST(SimdModeDeathTest, SimdWithoutLiveTilePanics)
{
    SystolicArray array(ArrayGeometry::mType(4));
    EXPECT_DEATH(array.simdScalar(SimdOp::MulScalar, 1.0f), "no live");
}

TEST(SimdMode, DrainReturnsTruncatedTileAndClears)
{
    Rng rng(10);
    SystolicArray array(ArrayGeometry::mType(6));
    const Matrix acc = loadTile(array, rng, 4, 6, 11);
    Matrix out;
    const std::uint64_t cycles = array.drain(out);
    EXPECT_EQ(cycles, 6u);
    ASSERT_EQ(out.rows(), 4u);
    ASSERT_EQ(out.cols(), 6u);
    // The OUTPUT port taps accumulator bits [31:16]: truncation.
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 6; ++j)
            EXPECT_EQ(out(i, j), truncateBf16(acc(i, j)));
    // Accumulators are cleared; a fresh tile starts from zero.
    const Matrix fresh = loadTile(array, rng, 2, 2, 3);
    EXPECT_EQ(Matrix::maxAbsDiff(array.accumulators(), fresh), 0.0f);
}

TEST(SimdMode, FusedDataflowKeepsIntermediateInAccumulators)
{
    // End-to-end Dataflow 2 on one tile: MatMul -> MulAdd -> GELU ->
    // drain, never touching external storage between stages.
    Rng rng(11);
    SystolicArray array(ArrayGeometry::gType(4));
    const Matrix a = randomMatrix(rng, 4, 8);
    const Matrix b = randomMatrix(rng, 8, 4);
    const Matrix bias = randomMatrix(rng, 4, 4);

    array.matmulTile(a, b);
    array.simdScalar(SimdOp::MulScalar, 1.0f);
    array.simdVector(SimdOp::AddVector, bias);
    array.simdSpecial(SimdOp::Gelu);
    Matrix out;
    array.drain(out);

    const TwoLevelLut &lut = geluLut();
    const Matrix mm = matmulBf16(a, b);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            const float scaled = quantizeBf16(
                truncateBf16(mm(i, j)) * quantizeBf16(1.0f));
            const float biased = quantizeBf16(
                truncateBf16(scaled) + quantizeBf16(bias(i, j)));
            const float gelu =
                lut.lookup(truncateToBf16(biased)).toFloat();
            EXPECT_EQ(out(i, j), truncateBf16(gelu)) << i << "," << j;
        }
    }
}

TEST(SimdMode, VectorPassStallsUnderStarvedSupply)
{
    Rng rng(12);
    SystolicArray array(ArrayGeometry::mType(4), 0.25, 1e18);
    const Matrix a = randomMatrix(rng, 4, 4);
    const Matrix b = randomMatrix(rng, 4, 4);
    array.matmulTile(a, b); // will stall but complete
    const std::uint64_t before = array.stallCycles();
    const Matrix operand = randomMatrix(rng, 4, 4);
    const std::uint64_t cycles =
        array.simdVector(SimdOp::AddVector, operand);
    EXPECT_GT(cycles, 4u);
    EXPECT_GT(array.stallCycles(), before);
}

} // namespace
} // namespace prose
