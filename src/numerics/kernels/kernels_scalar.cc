/**
 * @file
 * Scalar reference kernels. Every other tier is tested bit-for-bit
 * against this table, and this table defers to the inline Bfloat16
 * helpers in numerics/bfloat16.hh, so there is exactly one definition
 * of the numeric semantics in the codebase.
 *
 * Compiled with the baseline ISA and -ffp-contract=off: the mul and add
 * in the MAC rows round separately (no FMA), because that is what the
 * pre-kernel scalar loops did. The SIMD tiers replicate it, fusing a
 * MAC only where every product is provably exact, so the fused and
 * separate forms give the same bits.
 */

#include "kernel_tiers.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "numerics/bfloat16.hh"

namespace prose::kernels {

namespace {

inline float
widenBits(std::uint16_t bits)
{
    return Bfloat16::fromBits(bits).toFloat();
}

void
macRowF32Scalar(float *c, const float *b, float av, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        c[j] += av * b[j];
}

void
macRowBf16Scalar(float *acc, const std::uint16_t *b, float av,
                 std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        acc[j] += av * widenBits(b[j]);
}

/** One row-major bf16 B block with row stride bStride. */
void
gemmBlockBf16Scalar(float *acc, std::size_t accStride,
                    const std::uint16_t *a, std::size_t aStride,
                    const std::uint16_t *b, std::size_t bStride,
                    std::size_t rows, std::size_t cols, std::size_t depth)
{
    for (std::size_t i = 0; i < rows; ++i) {
        const std::uint16_t *arow = a + i * aStride;
        float *crow = acc + i * accStride;
        for (std::size_t k = 0; k < depth; ++k)
            macRowBf16Scalar(crow, b + k * bStride, widenBits(arow[k]),
                             cols);
    }
}

/** The packed B panel one chunk at a time (layout in KernelSet). */
void
gemmTileBf16Scalar(float *acc, std::size_t accStride,
                   const std::uint16_t *a, std::size_t aStride,
                   const std::uint16_t *b, std::size_t rows,
                   std::size_t cols, std::size_t depth)
{
    for (std::size_t jb = 0; jb < cols; jb += kBf16ChunkCols) {
        const std::size_t live = std::min(kBf16ChunkCols, cols - jb);
        gemmBlockBf16Scalar(acc + jb, accStride, a, aStride,
                            b + jb * depth, live, rows, live, depth);
    }
}

void
gemmTileF32Scalar(float *acc, std::size_t accStride, const float *a,
                  std::size_t aStride, const float *b,
                  std::size_t bStride, std::size_t rows,
                  std::size_t cols, std::size_t depth)
{
    for (std::size_t i = 0; i < rows; ++i) {
        const float *arow = a + i * aStride;
        float *crow = acc + i * accStride;
        for (std::size_t k = 0; k < depth; ++k)
            macRowF32Scalar(crow, b + k * bStride, arow[k], cols);
    }
}

void
quantizeBitsRowScalar(std::uint16_t *dst, const float *src, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = Bfloat16::roundFromFloat(src[j]);
}

void
widenRowScalar(float *dst, const std::uint16_t *src, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = widenBits(src[j]);
}

void
quantizeRoundtripRowScalar(float *dst, const float *src, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = quantizeBf16(src[j]);
}

void
truncateRowScalar(float *dst, const float *src, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = truncateBf16(src[j]);
}

void
simdMulScalarRowScalar(float *acc, float q, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        acc[j] = quantizeBf16(truncateBf16(acc[j]) * q);
}

void
simdAddScalarRowScalar(float *acc, float q, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        acc[j] = quantizeBf16(truncateBf16(acc[j]) + q);
}

void
simdMulVectorRowScalar(float *acc, const float *v, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        acc[j] = quantizeBf16(truncateBf16(acc[j]) * quantizeBf16(v[j]));
}

void
simdAddVectorRowScalar(float *acc, const float *v, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        acc[j] = quantizeBf16(truncateBf16(acc[j]) + quantizeBf16(v[j]));
}

void
scaleQuantizeRowScalar(float *v, float s, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        v[j] = quantizeBf16(v[j] * s);
}

void
lutRowScalar(float *acc, const std::uint32_t *table, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j) {
        std::uint32_t bits;
        std::memcpy(&bits, &acc[j], sizeof(bits));
        const std::uint32_t out = table[bits >> 16];
        std::memcpy(&acc[j], &out, sizeof(out));
    }
}

void
columnSumsF64Scalar(double *sum, double *absSum, const float *x,
                    std::size_t xStride, std::size_t rows,
                    std::size_t cols, const double *w, const double *absW)
{
    std::fill_n(sum, cols, 0.0);
    if (absSum)
        std::fill_n(absSum, cols, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
        const float *row = x + i * xStride;
        for (std::size_t c = 0; c < cols; ++c) {
            const double v = row[c];
            sum[c] += w ? w[i] * v : v;
            if (absSum)
                absSum[c] += w ? absW[i] * std::fabs(v) : std::fabs(v);
        }
    }
}

void
rowSumsF64Scalar(double *sum, double *absSum, const float *x,
                 std::size_t xStride, std::size_t rows, std::size_t cols,
                 const double *w, const double *absW)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const float *row = x + r * xStride;
        double s = 0.0, a = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            const double v = row[c];
            s += w ? w[c] * v : v;
            if (absSum)
                a += w ? absW[c] * std::fabs(v) : std::fabs(v);
        }
        sum[r] = s;
        if (absSum)
            absSum[r] = a;
    }
}

} // namespace

const KernelSet &
scalarKernelSet()
{
    static const KernelSet set = {
        "scalar",
        gemmTileBf16Scalar,
        gemmTileF32Scalar,
        quantizeBitsRowScalar,
        widenRowScalar,
        quantizeRoundtripRowScalar,
        truncateRowScalar,
        simdMulScalarRowScalar,
        simdAddScalarRowScalar,
        simdMulVectorRowScalar,
        simdAddVectorRowScalar,
        scaleQuantizeRowScalar,
        lutRowScalar,
        columnSumsF64Scalar,
        rowSumsF64Scalar,
    };
    return set;
}

} // namespace prose::kernels
