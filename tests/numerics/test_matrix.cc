/** @file Tests for the matrix container and tensor-op vocabulary. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "numerics/activations.hh"
#include "numerics/bfloat16.hh"
#include "numerics/matrix.hh"

namespace prose {
namespace {

Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix m(rows, cols);
    m.fillGaussian(rng, 0.0f, 1.0f);
    return m;
}

TEST(Matrix, ConstructZeroFilled)
{
    Matrix m(3, 4);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_EQ(m(i, j), 0.0f);
}

TEST(Matrix, FillConstructor)
{
    Matrix m(2, 2, 7.5f);
    EXPECT_EQ(m(1, 1), 7.5f);
}

TEST(Matrix, RowPointerMatchesIndexing)
{
    Matrix m(2, 3);
    m(1, 2) = 9.0f;
    EXPECT_EQ(m.row(1)[2], 9.0f);
}

TEST(MatrixDeathTest, OutOfRangePanics)
{
    Matrix m(2, 2);
    EXPECT_DEATH(m.at(2, 0), "out of range");
}

TEST(Matmul, IdentityIsNeutral)
{
    Rng rng(1);
    Matrix a = randomMatrix(rng, 5, 5);
    Matrix eye(5, 5);
    for (std::size_t i = 0; i < 5; ++i)
        eye(i, i) = 1.0f;
    EXPECT_LT(Matrix::maxAbsDiff(matmul(a, eye), a), 1e-6f);
    EXPECT_LT(Matrix::maxAbsDiff(matmul(eye, a), a), 1e-6f);
}

TEST(Matmul, KnownSmallProduct)
{
    Matrix a(2, 3);
    Matrix b(3, 2);
    float va = 1.0f;
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            a(i, j) = va++;
    float vb = 1.0f;
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            b(i, j) = vb++;
    const Matrix c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 22.0f);
    EXPECT_FLOAT_EQ(c(0, 1), 28.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 49.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 64.0f);
}

TEST(Matmul, AssociatesWithTranspose)
{
    // (A B)^T == B^T A^T.
    Rng rng(2);
    const Matrix a = randomMatrix(rng, 4, 6);
    const Matrix b = randomMatrix(rng, 6, 3);
    const Matrix lhs = transpose(matmul(a, b));
    const Matrix rhs = matmul(transpose(b), transpose(a));
    EXPECT_LT(Matrix::maxAbsDiff(lhs, rhs), 1e-4f);
}

TEST(MatmulDeathTest, InnerDimMismatchPanics)
{
    Matrix a(2, 3), b(4, 2);
    EXPECT_DEATH(matmul(a, b), "inner-dim");
}

TEST(MatmulBf16, MatchesQuantizedReference)
{
    Rng rng(3);
    Matrix a = randomMatrix(rng, 7, 9);
    Matrix b = randomMatrix(rng, 9, 5);
    Matrix aq = a, bq = b;
    aq.quantizeBf16InPlace();
    bq.quantizeBf16InPlace();
    EXPECT_EQ(Matrix::maxAbsDiff(matmulBf16(a, b), matmul(aq, bq)), 0.0f);
}

TEST(MatmulBf16, CloseToFp32ForModestMagnitudes)
{
    Rng rng(4);
    const Matrix a = randomMatrix(rng, 16, 32);
    const Matrix b = randomMatrix(rng, 32, 16);
    const float diff = Matrix::maxAbsDiff(matmulBf16(a, b), matmul(a, b));
    // Error ~ k * |a| * |b| * 2^-8: with k=32 and unit-normal entries,
    // well under 0.5.
    EXPECT_LT(diff, 0.5f);
    EXPECT_GT(diff, 0.0f); // quantization is actually happening
}

TEST(MulAdd, ScalesAndAdds)
{
    Matrix a(2, 2, 1.0f), b(2, 2, 10.0f);
    const Matrix c = mulAdd(2.0f, a, 0.5f, b);
    EXPECT_FLOAT_EQ(c(0, 0), 7.0f);
}

TEST(Transpose, Involution)
{
    Rng rng(5);
    const Matrix a = randomMatrix(rng, 3, 7);
    EXPECT_EQ(Matrix::maxAbsDiff(transpose(transpose(a)), a), 0.0f);
}

TEST(RowSoftmax, RowsSumToOne)
{
    Rng rng(6);
    const Matrix a = randomMatrix(rng, 10, 20);
    const Matrix p = rowSoftmax(a);
    for (std::size_t i = 0; i < p.rows(); ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < p.cols(); ++j) {
            EXPECT_GT(p(i, j), 0.0f);
            sum += p(i, j);
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(RowSoftmax, StableUnderLargeInputs)
{
    Matrix a(1, 3);
    a(0, 0) = 1000.0f;
    a(0, 1) = 999.0f;
    a(0, 2) = 998.0f;
    const Matrix p = rowSoftmax(a);
    EXPECT_FALSE(std::isnan(p(0, 0)));
    EXPECT_GT(p(0, 0), p(0, 1));
    EXPECT_GT(p(0, 1), p(0, 2));
}

TEST(RowSoftmax, ShiftInvariant)
{
    Rng rng(7);
    Matrix a = randomMatrix(rng, 4, 8);
    Matrix shifted = a;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            shifted(i, j) += 5.0f;
    EXPECT_LT(Matrix::maxAbsDiff(rowSoftmax(a), rowSoftmax(shifted)),
              1e-5f);
}

TEST(LayerNorm, NormalizesRows)
{
    Rng rng(8);
    const Matrix a = randomMatrix(rng, 6, 64);
    std::vector<float> gamma(64, 1.0f), beta(64, 0.0f);
    const Matrix out = layerNorm(a, gamma, beta);
    for (std::size_t i = 0; i < out.rows(); ++i) {
        double sum = 0.0, sum_sq = 0.0;
        for (std::size_t j = 0; j < out.cols(); ++j) {
            sum += out(i, j);
            sum_sq += static_cast<double>(out(i, j)) * out(i, j);
        }
        EXPECT_NEAR(sum / 64.0, 0.0, 1e-4);
        EXPECT_NEAR(sum_sq / 64.0, 1.0, 1e-3);
    }
}

TEST(LayerNorm, GainAndBiasApplied)
{
    Matrix a(1, 4);
    a(0, 0) = 1.0f;
    a(0, 1) = 2.0f;
    a(0, 2) = 3.0f;
    a(0, 3) = 4.0f;
    std::vector<float> gamma(4, 2.0f), beta(4, 10.0f);
    const Matrix out = layerNorm(a, gamma, beta);
    // Mean of outputs should be the bias (gain scales zero-mean data).
    double sum = 0.0;
    for (std::size_t j = 0; j < 4; ++j)
        sum += out(0, j);
    EXPECT_NEAR(sum / 4.0, 10.0, 1e-4);
}

TEST(QuantizeBf16InPlace, EveryElementRepresentable)
{
    Rng rng(12);
    Matrix a = randomMatrix(rng, 5, 5);
    a.quantizeBf16InPlace();
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            EXPECT_EQ(a(i, j), quantizeBf16(a(i, j)));
}

// --- Pooled/tiled kernel bit-exactness --------------------------------

/** Textbook i-k-j matmul: the accumulation-order reference the tiled
 *  kernel promises to reproduce bit-for-bit. */
Matrix
naiveMatmul(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        float *crow = c.row(i);
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const float aik = a(i, k);
            const float *brow = b.row(k);
            for (std::size_t j = 0; j < b.cols(); ++j)
                crow[j] += aik * brow[j];
        }
    }
    return c;
}

struct GemmShape
{
    std::size_t m, k, n;
};

// Odd/even and tile-straddling shapes (kernel blocks: k=128, j=256).
const GemmShape kShapes[] = {
    { 1, 1, 1 },     { 3, 5, 2 },      { 64, 64, 64 },
    { 65, 129, 33 }, { 127, 128, 257 }, { 130, 300, 70 },
};

TEST(MatmulPooled, BitIdenticalToNaiveSerial)
{
    ThreadPool pool(4);
    ThreadPool::setGlobalOverride(&pool);
    Rng rng(21);
    for (const GemmShape &s : kShapes) {
        const Matrix a = randomMatrix(rng, s.m, s.k);
        const Matrix b = randomMatrix(rng, s.k, s.n);
        EXPECT_EQ(Matrix::maxAbsDiff(matmul(a, b), naiveMatmul(a, b)),
                  0.0f)
            << s.m << "x" << s.k << "x" << s.n;
    }
    ThreadPool::setGlobalOverride(nullptr);
}

TEST(MatmulPooled, SerialGuardMatchesPooledBitwise)
{
    ThreadPool pool(4);
    ThreadPool::setGlobalOverride(&pool);
    Rng rng(22);
    const Matrix a = randomMatrix(rng, 130, 300);
    const Matrix b = randomMatrix(rng, 300, 70);
    const Matrix pooled = matmul(a, b);
    Matrix serial;
    {
        ThreadPool::SerialGuard guard;
        serial = matmul(a, b);
    }
    EXPECT_EQ(Matrix::maxAbsDiff(pooled, serial), 0.0f);
    ThreadPool::setGlobalOverride(nullptr);
}

TEST(MatmulPooled, Bf16BitIdenticalAcrossPoolSizes)
{
    Rng rng(23);
    for (const GemmShape &s : kShapes) {
        const Matrix a = randomMatrix(rng, s.m, s.k);
        const Matrix b = randomMatrix(rng, s.k, s.n);
        Matrix aq = a, bq = b;
        aq.quantizeBf16InPlace();
        bq.quantizeBf16InPlace();
        const Matrix want = naiveMatmul(aq, bq);
        Matrix serial;
        {
            ThreadPool::SerialGuard guard;
            serial = matmulBf16(a, b);
        }
        ThreadPool pool(3);
        ThreadPool::setGlobalOverride(&pool);
        const Matrix pooled = matmulBf16(a, b);
        ThreadPool::setGlobalOverride(nullptr);
        EXPECT_EQ(Matrix::maxAbsDiff(serial, want), 0.0f);
        EXPECT_EQ(Matrix::maxAbsDiff(pooled, want), 0.0f);
    }
}

// --- Non-finite propagation (the aik == 0 skip regression) ------------

TEST(Matmul, ZeroTimesInfInBProducesNaN)
{
    Matrix a(1, 2);
    a(0, 0) = 0.0f;
    a(0, 1) = 1.0f;
    Matrix b(2, 1);
    b(0, 0) = std::numeric_limits<float>::infinity();
    b(1, 0) = 1.0f;
    // 0 * Inf must poison the accumulator; the old zero-skip fast path
    // dropped the term and returned 1.0.
    EXPECT_TRUE(std::isnan(matmul(a, b)(0, 0)));
}

TEST(Matmul, NaNInBPropagatesThroughZeroRow)
{
    Matrix a(2, 2); // all zeros
    Matrix b(2, 2);
    b(1, 1) = std::numeric_limits<float>::quiet_NaN();
    const Matrix c = matmul(a, b);
    EXPECT_TRUE(std::isnan(c(0, 1)));
    EXPECT_TRUE(std::isnan(c(1, 1)));
    EXPECT_EQ(c(0, 0), 0.0f);
}

TEST(Matmul, SparseFiniteInputsStayBitExact)
{
    // With an all-finite B the zero-skip fast path must stay
    // bit-identical to the unskipped reference.
    Rng rng(25);
    Matrix a = randomMatrix(rng, 33, 65);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            if (rng.uniform() < 0.7)
                a(i, j) = (rng.uniform() < 0.5) ? 0.0f : -0.0f;
    const Matrix b = randomMatrix(rng, 65, 17);
    EXPECT_EQ(Matrix::maxAbsDiff(matmul(a, b), naiveMatmul(a, b)), 0.0f);
}

// --- QuantizedOperand weight cache ------------------------------------

TEST(QuantizedOperand, MatchesPerCallQuantizationBitwise)
{
    Rng rng(26);
    const Matrix a = randomMatrix(rng, 19, 31);
    const Matrix w = randomMatrix(rng, 31, 11);
    const QuantizedOperand cached(w);
    EXPECT_EQ(Matrix::maxAbsDiff(matmulBf16(a, cached), matmulBf16(a, w)),
              0.0f);
}

/** Bit equality, any NaN matching any NaN (payloads are outside the
 *  kernels' contract). */
::testing::AssertionResult
bitsIdentical(const Matrix &got, const Matrix &want)
{
    if (!got.sameShape(want))
        return ::testing::AssertionFailure() << "shape mismatch";
    for (std::size_t i = 0; i < got.size(); ++i) {
        const float g = got.data()[i];
        const float w = want.data()[i];
        if (std::isnan(g) && std::isnan(w))
            continue;
        if (std::memcmp(&g, &w, sizeof(float)) != 0) {
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << g << " vs " << w;
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(QuantizedOperand, PackedChunkAndPanelEdgesMatchNaive)
{
    // The bf16 B operand is packed in 128-deep k panels of 64-column
    // chunks. Widths straddle one chunk (63, 64, 65) and span several
    // (200); depths straddle one panel (127, 128, 129) and span several
    // (300). Both the cached operand and the per-call path must equal
    // the textbook loop over the quantized operands, serially and on a
    // 3-lane pool. A zero row and a zero column ride along.
    Rng rng(27);
    ThreadPool pool(3);
    for (std::size_t n : { 1, 63, 64, 65, 200 }) {
        for (std::size_t k : { 1, 127, 128, 129, 300 }) {
            Matrix a = randomMatrix(rng, 13, k);
            Matrix w = randomMatrix(rng, k, n);
            for (std::size_t j = 0; j < n; ++j)
                w(k - 1, j) = 0.0f;
            for (std::size_t r = 0; r < k; ++r)
                w(r, n / 2) = -0.0f;
            Matrix aq = a, wq = w;
            aq.quantizeBf16InPlace();
            wq.quantizeBf16InPlace();
            const Matrix want = naiveMatmul(aq, wq);
            const QuantizedOperand cached(w);
            const auto check = [&](const char *how) {
                EXPECT_TRUE(bitsIdentical(matmulBf16(a, cached), want))
                    << "cached " << k << "x" << n << " " << how;
                EXPECT_TRUE(bitsIdentical(matmulBf16(a, w), want))
                    << "per call " << k << "x" << n << " " << how;
            };
            {
                ThreadPool::SerialGuard guard;
                check("serial");
            }
            ThreadPool::setGlobalOverride(&pool);
            check("3-lane pool");
            ThreadPool::setGlobalOverride(nullptr);
        }
    }
}

TEST(QuantizedOperand, PackedOperandSplitAcrossPoolLanesMatchesNaive)
{
    // 1700x300x200 is ~102M MACs, above the 3-lane pool floor, so the
    // rows really split across lanes, each lane walking the whole
    // packed B (several panels, a ragged last chunk).
    Rng rng(29);
    const Matrix a = randomMatrix(rng, 1700, 300);
    const Matrix w = randomMatrix(rng, 300, 200);
    Matrix aq = a, wq = w;
    aq.quantizeBf16InPlace();
    wq.quantizeBf16InPlace();
    const Matrix want = naiveMatmul(aq, wq);
    const QuantizedOperand cached(w);
    ThreadPool pool(3);
    ThreadPool::setGlobalOverride(&pool);
    const std::uint64_t before = ThreadPool::dispatchCount();
    const Matrix got_cached = matmulBf16(a, cached);
    const Matrix got_per_call = matmulBf16(a, w);
    const std::uint64_t dispatched = ThreadPool::dispatchCount() - before;
    ThreadPool::setGlobalOverride(nullptr);
    EXPECT_EQ(dispatched, 2u);
    EXPECT_TRUE(bitsIdentical(got_cached, want));
    EXPECT_TRUE(bitsIdentical(got_per_call, want));
}

TEST(QuantizedOperand, DefaultIsEmpty)
{
    const QuantizedOperand op;
    EXPECT_TRUE(op.empty());
    Rng rng(28);
    const QuantizedOperand filled(randomMatrix(rng, 3, 3));
    EXPECT_FALSE(filled.empty());
}

} // namespace
} // namespace prose
