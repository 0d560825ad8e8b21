/**
 * @file
 * AVX2 kernel tier. Compiled with -mavx2 and -ffp-contract=off, without
 * -mfma: the scalar reference rounds the product and the sum of every
 * MAC separately, and a MAC may be fused only where every product is
 * provably exact. This tier fuses nowhere (the dispatcher does not probe
 * the FMA3 CPUID bit); the AVX-512 bf16 tile shows the exactness gate.
 *
 * Vectorization is across independent j lanes only; each accumulator
 * still sees its fp32 operations in exactly the scalar order. The bf16
 * conversions are implemented as the same integer bit manipulations as
 * Bfloat16::roundFromFloat / truncateToBf16, eight lanes at a time:
 * round-to-nearest-even is `bits + 0x7fff + ((bits >> 16) & 1)` and the
 * NaN path forces the quiet bit, both exact for every input including
 * denormals and signed zeros.
 */

#include "kernel_tiers.hh"

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "numerics/bfloat16.hh"

namespace prose::kernels {

namespace {

inline float
widenBits(std::uint16_t bits)
{
    return Bfloat16::fromBits(bits).toFloat();
}

// Vector constants are built inside each helper (never at namespace
// scope: a static initializer would execute AVX instructions before
// main() even on CPUs the dispatcher would reject).
inline __m256i
hiMask()
{
    return _mm256_set1_epi32(static_cast<std::int32_t>(0xffff0000u));
}

/** Lanes that hold any NaN (all-ones where NaN). */
inline __m256i
nanLanes(__m256i bits)
{
    // abs(bits) <= 0x7fffffff, so the signed compare is an unsigned one.
    return _mm256_cmpgt_epi32(
        _mm256_and_si256(bits, _mm256_set1_epi32(0x7fffffff)),
        _mm256_set1_epi32(0x7f800000));
}

/** `bits + 0x7fff + ((bits >> 16) & 1)` — the RNE bias add. */
inline __m256i
rneRounded(__m256i bits)
{
    const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(bits, 16),
                                         _mm256_set1_epi32(1));
    return _mm256_add_epi32(
        bits, _mm256_add_epi32(lsb, _mm256_set1_epi32(0x7fff)));
}

/** Round-to-nearest-even fp32 -> bf16, result widened back to fp32 bits
 *  (the quantizeBf16 round trip), 8 lanes. */
inline __m256i
quantRoundtripBits(__m256i bits)
{
    const __m256i normal = _mm256_and_si256(rneRounded(bits), hiMask());
    const __m256i nan =
        _mm256_or_si256(_mm256_and_si256(bits, hiMask()),
                        _mm256_set1_epi32(0x00400000));
    return _mm256_blendv_epi8(normal, nan, nanLanes(bits));
}

inline __m256
quantRoundtrip(__m256 v)
{
    return _mm256_castsi256_ps(
        quantRoundtripBits(_mm256_castps_si256(v)));
}

/** fp32 -> bf16 bit pattern in the low 16 bits of each epi32 lane. */
inline __m256i
quantBits16(__m256i bits)
{
    const __m256i normal = _mm256_srli_epi32(rneRounded(bits), 16);
    const __m256i nan = _mm256_or_si256(_mm256_srli_epi32(bits, 16),
                                        _mm256_set1_epi32(0x0040));
    return _mm256_blendv_epi8(normal, nan, nanLanes(bits));
}

/** Pack the low u16 of 8 epi32 lanes and store them contiguously. */
inline void
storeU16x8(std::uint16_t *dst, __m256i lanes)
{
    // packus interleaves 128-bit halves; permute [0,2] restores order.
    const __m256i packed = _mm256_packus_epi32(lanes, lanes);
    const __m256i ordered = _mm256_permute4x64_epi64(packed, 0x88);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(dst),
                     _mm256_castsi256_si128(ordered));
}

/** Widen 8 bf16 bit patterns to fp32 (exact). */
inline __m256
widen8(const std::uint16_t *src)
{
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(src));
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16));
}

inline __m256
truncate8(__m256 v)
{
    return _mm256_castsi256_ps(
        _mm256_and_si256(_mm256_castps_si256(v), hiMask()));
}

/** One row of the bf16 tile GEMM (the remainder path under the 2-row
 *  blocking): 32-wide blocks keep four accumulator vectors in
 *  registers across the whole k loop, so each accumulator's
 *  ascending-k op sequence is preserved while the acc row is loaded
 *  and stored exactly once. */
inline void
gemmRowBf16Avx2(float *crow, const std::uint16_t *arow,
                const std::uint16_t *b, std::size_t bStride,
                std::size_t cols, std::size_t depth)
{
    std::size_t jb = 0;
    for (; jb + 32 <= cols; jb += 32) {
        float *cj = crow + jb;
        __m256 c0 = _mm256_loadu_ps(cj);
        __m256 c1 = _mm256_loadu_ps(cj + 8);
        __m256 c2 = _mm256_loadu_ps(cj + 16);
        __m256 c3 = _mm256_loadu_ps(cj + 24);
        for (std::size_t k = 0; k < depth; ++k) {
            const std::uint16_t *brow = b + k * bStride + jb;
            const __m256 avv = _mm256_set1_ps(widenBits(arow[k]));
            c0 = _mm256_add_ps(c0, _mm256_mul_ps(avv, widen8(brow)));
            c1 = _mm256_add_ps(c1,
                               _mm256_mul_ps(avv, widen8(brow + 8)));
            c2 = _mm256_add_ps(c2,
                               _mm256_mul_ps(avv, widen8(brow + 16)));
            c3 = _mm256_add_ps(c3,
                               _mm256_mul_ps(avv, widen8(brow + 24)));
        }
        _mm256_storeu_ps(cj, c0);
        _mm256_storeu_ps(cj + 8, c1);
        _mm256_storeu_ps(cj + 16, c2);
        _mm256_storeu_ps(cj + 24, c3);
    }
    // 8-wide blocks for medium tails.
    for (; jb + 8 <= cols; jb += 8) {
        __m256 c0 = _mm256_loadu_ps(crow + jb);
        for (std::size_t k = 0; k < depth; ++k) {
            const __m256 avv = _mm256_set1_ps(widenBits(arow[k]));
            c0 = _mm256_add_ps(
                c0, _mm256_mul_ps(avv, widen8(b + k * bStride + jb)));
        }
        _mm256_storeu_ps(crow + jb, c0);
    }
    if (jb < cols) {
        // Sub-vector tail: keep the few remaining accumulators in a
        // local block so they stay in registers across k.
        float tail[8];
        const std::size_t w = cols - jb;
        for (std::size_t j = 0; j < w; ++j)
            tail[j] = crow[jb + j];
        for (std::size_t k = 0; k < depth; ++k) {
            const float av = widenBits(arow[k]);
            const std::uint16_t *brow = b + k * bStride + jb;
            for (std::size_t j = 0; j < w; ++j)
                tail[j] += av * widenBits(brow[j]);
        }
        for (std::size_t j = 0; j < w; ++j)
            crow[jb + j] = tail[j];
    }
}

/** One row-major bf16 B block with row stride bStride. */
void
gemmBlockBf16Avx2(float *acc, std::size_t accStride,
                  const std::uint16_t *a, std::size_t aStride,
                  const std::uint16_t *b, std::size_t bStride,
                  std::size_t rows, std::size_t cols, std::size_t depth)
{
    // Two-row register blocking: each widened B chunk feeds both rows'
    // accumulators before the next is formed, halving the bf16->fp32
    // conversion work and the B-tile traffic (2 x 4 accumulators + the
    // B vector + 2 broadcasts stay inside the 16 ymm registers). Per
    // accumulator lane the op sequence is still exactly the scalar
    // ascending-k order.
    std::size_t i = 0;
    for (; i + 2 <= rows; i += 2) {
        const std::uint16_t *a0 = a + i * aStride;
        const std::uint16_t *a1 = a0 + aStride;
        float *c0row = acc + i * accStride;
        float *c1row = c0row + accStride;
        std::size_t jb = 0;
        for (; jb + 32 <= cols; jb += 32) {
            float *cj0 = c0row + jb;
            float *cj1 = c1row + jb;
            __m256 c00 = _mm256_loadu_ps(cj0);
            __m256 c01 = _mm256_loadu_ps(cj0 + 8);
            __m256 c02 = _mm256_loadu_ps(cj0 + 16);
            __m256 c03 = _mm256_loadu_ps(cj0 + 24);
            __m256 c10 = _mm256_loadu_ps(cj1);
            __m256 c11 = _mm256_loadu_ps(cj1 + 8);
            __m256 c12 = _mm256_loadu_ps(cj1 + 16);
            __m256 c13 = _mm256_loadu_ps(cj1 + 24);
            for (std::size_t k = 0; k < depth; ++k) {
                const std::uint16_t *brow = b + k * bStride + jb;
                const __m256 av0 = _mm256_set1_ps(widenBits(a0[k]));
                const __m256 av1 = _mm256_set1_ps(widenBits(a1[k]));
                __m256 bw = widen8(brow);
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(av0, bw));
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(av1, bw));
                bw = widen8(brow + 8);
                c01 = _mm256_add_ps(c01, _mm256_mul_ps(av0, bw));
                c11 = _mm256_add_ps(c11, _mm256_mul_ps(av1, bw));
                bw = widen8(brow + 16);
                c02 = _mm256_add_ps(c02, _mm256_mul_ps(av0, bw));
                c12 = _mm256_add_ps(c12, _mm256_mul_ps(av1, bw));
                bw = widen8(brow + 24);
                c03 = _mm256_add_ps(c03, _mm256_mul_ps(av0, bw));
                c13 = _mm256_add_ps(c13, _mm256_mul_ps(av1, bw));
            }
            _mm256_storeu_ps(cj0, c00);
            _mm256_storeu_ps(cj0 + 8, c01);
            _mm256_storeu_ps(cj0 + 16, c02);
            _mm256_storeu_ps(cj0 + 24, c03);
            _mm256_storeu_ps(cj1, c10);
            _mm256_storeu_ps(cj1 + 8, c11);
            _mm256_storeu_ps(cj1 + 16, c12);
            _mm256_storeu_ps(cj1 + 24, c13);
        }
        for (; jb + 8 <= cols; jb += 8) {
            __m256 c00 = _mm256_loadu_ps(c0row + jb);
            __m256 c10 = _mm256_loadu_ps(c1row + jb);
            for (std::size_t k = 0; k < depth; ++k) {
                const __m256 bw = widen8(b + k * bStride + jb);
                const __m256 av0 = _mm256_set1_ps(widenBits(a0[k]));
                const __m256 av1 = _mm256_set1_ps(widenBits(a1[k]));
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(av0, bw));
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(av1, bw));
            }
            _mm256_storeu_ps(c0row + jb, c00);
            _mm256_storeu_ps(c1row + jb, c10);
        }
        if (jb < cols) {
            float tail0[8], tail1[8];
            const std::size_t w = cols - jb;
            for (std::size_t j = 0; j < w; ++j) {
                tail0[j] = c0row[jb + j];
                tail1[j] = c1row[jb + j];
            }
            for (std::size_t k = 0; k < depth; ++k) {
                const float av0 = widenBits(a0[k]);
                const float av1 = widenBits(a1[k]);
                const std::uint16_t *brow = b + k * bStride + jb;
                for (std::size_t j = 0; j < w; ++j) {
                    const float bv = widenBits(brow[j]);
                    tail0[j] += av0 * bv;
                    tail1[j] += av1 * bv;
                }
            }
            for (std::size_t j = 0; j < w; ++j) {
                c0row[jb + j] = tail0[j];
                c1row[jb + j] = tail1[j];
            }
        }
    }
    for (; i < rows; ++i)
        gemmRowBf16Avx2(acc + i * accStride, a + i * aStride, b,
                        bStride, cols, depth);
}

/** The packed B panel one chunk at a time (layout in KernelSet), each
 *  chunk prefetched while the one before it computes. */
void
gemmTileBf16Avx2(float *acc, std::size_t accStride,
                 const std::uint16_t *a, std::size_t aStride,
                 const std::uint16_t *b, std::size_t rows,
                 std::size_t cols, std::size_t depth)
{
    for (std::size_t jb = 0; jb < cols; jb += kBf16ChunkCols) {
        const std::size_t live = std::min(kBf16ChunkCols, cols - jb);
        prefetchNextBf16Chunk(b, jb, cols, depth);
        gemmBlockBf16Avx2(acc + jb, accStride, a, aStride,
                          b + jb * depth, live, rows, live, depth);
    }
}

/** Single-row remainder of the fp32 tile GEMM. */
inline void
gemmRowF32Avx2(float *crow, const float *arow, const float *b,
               std::size_t bStride, std::size_t cols, std::size_t depth)
{
    std::size_t jb = 0;
    for (; jb + 32 <= cols; jb += 32) {
        float *cj = crow + jb;
        __m256 c0 = _mm256_loadu_ps(cj);
        __m256 c1 = _mm256_loadu_ps(cj + 8);
        __m256 c2 = _mm256_loadu_ps(cj + 16);
        __m256 c3 = _mm256_loadu_ps(cj + 24);
        for (std::size_t k = 0; k < depth; ++k) {
            const float *brow = b + k * bStride + jb;
            const __m256 avv = _mm256_set1_ps(arow[k]);
            c0 = _mm256_add_ps(
                c0, _mm256_mul_ps(avv, _mm256_loadu_ps(brow)));
            c1 = _mm256_add_ps(
                c1, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 8)));
            c2 = _mm256_add_ps(
                c2, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 16)));
            c3 = _mm256_add_ps(
                c3, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 24)));
        }
        _mm256_storeu_ps(cj, c0);
        _mm256_storeu_ps(cj + 8, c1);
        _mm256_storeu_ps(cj + 16, c2);
        _mm256_storeu_ps(cj + 24, c3);
    }
    for (; jb + 8 <= cols; jb += 8) {
        __m256 c0 = _mm256_loadu_ps(crow + jb);
        for (std::size_t k = 0; k < depth; ++k) {
            const __m256 avv = _mm256_set1_ps(arow[k]);
            c0 = _mm256_add_ps(
                c0,
                _mm256_mul_ps(avv,
                              _mm256_loadu_ps(b + k * bStride + jb)));
        }
        _mm256_storeu_ps(crow + jb, c0);
    }
    if (jb < cols) {
        float tail[8];
        const std::size_t w = cols - jb;
        for (std::size_t j = 0; j < w; ++j)
            tail[j] = crow[jb + j];
        for (std::size_t k = 0; k < depth; ++k) {
            const float av = arow[k];
            const float *brow = b + k * bStride + jb;
            for (std::size_t j = 0; j < w; ++j)
                tail[j] += av * brow[j];
        }
        for (std::size_t j = 0; j < w; ++j)
            crow[jb + j] = tail[j];
    }
}

void
gemmTileF32Avx2(float *acc, std::size_t accStride, const float *a,
                std::size_t aStride, const float *b, std::size_t bStride,
                std::size_t rows, std::size_t cols, std::size_t depth)
{
    // Same 2-row x 32-column register blocking as the bf16 tile; the
    // accumulators never round-trip memory inside the depth loop.
    std::size_t i = 0;
    for (; i + 2 <= rows; i += 2) {
        const float *a0 = a + i * aStride;
        const float *a1 = a0 + aStride;
        float *c0row = acc + i * accStride;
        float *c1row = c0row + accStride;
        std::size_t jb = 0;
        for (; jb + 32 <= cols; jb += 32) {
            float *cj0 = c0row + jb;
            float *cj1 = c1row + jb;
            __m256 c00 = _mm256_loadu_ps(cj0);
            __m256 c01 = _mm256_loadu_ps(cj0 + 8);
            __m256 c02 = _mm256_loadu_ps(cj0 + 16);
            __m256 c03 = _mm256_loadu_ps(cj0 + 24);
            __m256 c10 = _mm256_loadu_ps(cj1);
            __m256 c11 = _mm256_loadu_ps(cj1 + 8);
            __m256 c12 = _mm256_loadu_ps(cj1 + 16);
            __m256 c13 = _mm256_loadu_ps(cj1 + 24);
            for (std::size_t k = 0; k < depth; ++k) {
                const float *brow = b + k * bStride + jb;
                const __m256 av0 = _mm256_set1_ps(a0[k]);
                const __m256 av1 = _mm256_set1_ps(a1[k]);
                __m256 bv = _mm256_loadu_ps(brow);
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(av0, bv));
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(av1, bv));
                bv = _mm256_loadu_ps(brow + 8);
                c01 = _mm256_add_ps(c01, _mm256_mul_ps(av0, bv));
                c11 = _mm256_add_ps(c11, _mm256_mul_ps(av1, bv));
                bv = _mm256_loadu_ps(brow + 16);
                c02 = _mm256_add_ps(c02, _mm256_mul_ps(av0, bv));
                c12 = _mm256_add_ps(c12, _mm256_mul_ps(av1, bv));
                bv = _mm256_loadu_ps(brow + 24);
                c03 = _mm256_add_ps(c03, _mm256_mul_ps(av0, bv));
                c13 = _mm256_add_ps(c13, _mm256_mul_ps(av1, bv));
            }
            _mm256_storeu_ps(cj0, c00);
            _mm256_storeu_ps(cj0 + 8, c01);
            _mm256_storeu_ps(cj0 + 16, c02);
            _mm256_storeu_ps(cj0 + 24, c03);
            _mm256_storeu_ps(cj1, c10);
            _mm256_storeu_ps(cj1 + 8, c11);
            _mm256_storeu_ps(cj1 + 16, c12);
            _mm256_storeu_ps(cj1 + 24, c13);
        }
        for (; jb + 8 <= cols; jb += 8) {
            __m256 c00 = _mm256_loadu_ps(c0row + jb);
            __m256 c10 = _mm256_loadu_ps(c1row + jb);
            for (std::size_t k = 0; k < depth; ++k) {
                const __m256 bv = _mm256_loadu_ps(b + k * bStride + jb);
                const __m256 av0 = _mm256_set1_ps(a0[k]);
                const __m256 av1 = _mm256_set1_ps(a1[k]);
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(av0, bv));
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(av1, bv));
            }
            _mm256_storeu_ps(c0row + jb, c00);
            _mm256_storeu_ps(c1row + jb, c10);
        }
        if (jb < cols) {
            float tail0[8], tail1[8];
            const std::size_t w = cols - jb;
            for (std::size_t j = 0; j < w; ++j) {
                tail0[j] = c0row[jb + j];
                tail1[j] = c1row[jb + j];
            }
            for (std::size_t k = 0; k < depth; ++k) {
                const float av0 = a0[k];
                const float av1 = a1[k];
                const float *brow = b + k * bStride + jb;
                for (std::size_t j = 0; j < w; ++j) {
                    tail0[j] += av0 * brow[j];
                    tail1[j] += av1 * brow[j];
                }
            }
            for (std::size_t j = 0; j < w; ++j) {
                c0row[jb + j] = tail0[j];
                c1row[jb + j] = tail1[j];
            }
        }
    }
    for (; i < rows; ++i)
        gemmRowF32Avx2(acc + i * accStride, a + i * aStride, b, bStride,
                       cols, depth);
}

void
quantizeBitsRowAvx2(std::uint16_t *dst, const float *src, std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i bits =
            _mm256_castps_si256(_mm256_loadu_ps(src + j));
        storeU16x8(dst + j, quantBits16(bits));
    }
    for (; j < n; ++j)
        dst[j] = Bfloat16::roundFromFloat(src[j]);
}

void
widenRowAvx2(float *dst, const std::uint16_t *src, std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(dst + j, widen8(src + j));
    for (; j < n; ++j)
        dst[j] = widenBits(src[j]);
}

void
quantizeRoundtripRowAvx2(float *dst, const float *src, std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(dst + j,
                         quantRoundtrip(_mm256_loadu_ps(src + j)));
    for (; j < n; ++j)
        dst[j] = quantizeBf16(src[j]);
}

void
truncateRowAvx2(float *dst, const float *src, std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(dst + j, truncate8(_mm256_loadu_ps(src + j)));
    for (; j < n; ++j)
        dst[j] = truncateBf16(src[j]);
}

void
simdMulScalarRowAvx2(float *acc, float q, std::size_t n)
{
    const __m256 qv = _mm256_set1_ps(q);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 x = truncate8(_mm256_loadu_ps(acc + j));
        _mm256_storeu_ps(acc + j,
                         quantRoundtrip(_mm256_mul_ps(x, qv)));
    }
    for (; j < n; ++j)
        acc[j] = quantizeBf16(truncateBf16(acc[j]) * q);
}

void
simdAddScalarRowAvx2(float *acc, float q, std::size_t n)
{
    const __m256 qv = _mm256_set1_ps(q);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 x = truncate8(_mm256_loadu_ps(acc + j));
        _mm256_storeu_ps(acc + j,
                         quantRoundtrip(_mm256_add_ps(x, qv)));
    }
    for (; j < n; ++j)
        acc[j] = quantizeBf16(truncateBf16(acc[j]) + q);
}

void
simdMulVectorRowAvx2(float *acc, const float *v, std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 x = truncate8(_mm256_loadu_ps(acc + j));
        const __m256 qv = quantRoundtrip(_mm256_loadu_ps(v + j));
        _mm256_storeu_ps(acc + j,
                         quantRoundtrip(_mm256_mul_ps(x, qv)));
    }
    for (; j < n; ++j)
        acc[j] = quantizeBf16(truncateBf16(acc[j]) * quantizeBf16(v[j]));
}

void
simdAddVectorRowAvx2(float *acc, const float *v, std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 x = truncate8(_mm256_loadu_ps(acc + j));
        const __m256 qv = quantRoundtrip(_mm256_loadu_ps(v + j));
        _mm256_storeu_ps(acc + j,
                         quantRoundtrip(_mm256_add_ps(x, qv)));
    }
    for (; j < n; ++j)
        acc[j] = quantizeBf16(truncateBf16(acc[j]) + quantizeBf16(v[j]));
}

void
scaleQuantizeRowAvx2(float *v, float s, std::size_t n)
{
    const __m256 sv = _mm256_set1_ps(s);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 y = _mm256_mul_ps(_mm256_loadu_ps(v + j), sv);
        _mm256_storeu_ps(v + j, quantRoundtrip(y));
    }
    for (; j < n; ++j)
        v[j] = quantizeBf16(v[j] * s);
}

void
lutRowAvx2(float *acc, const std::uint32_t *table, std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i bits = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + j));
        const __m256i idx = _mm256_srli_epi32(bits, 16);
        const __m256i out = _mm256_i32gather_epi32(
            reinterpret_cast<const int *>(table), idx, 4);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + j), out);
    }
    for (; j < n; ++j) {
        std::uint32_t bits;
        std::memcpy(&bits, &acc[j], sizeof(bits));
        const std::uint32_t out = table[bits >> 16];
        std::memcpy(&acc[j], &out, sizeof(out));
    }
}

} // namespace

const KernelSet &
avx2KernelSet()
{
    static const KernelSet set = {
        "avx2",
        gemmTileBf16Avx2,
        gemmTileF32Avx2,
        quantizeBitsRowAvx2,
        widenRowAvx2,
        quantizeRoundtripRowAvx2,
        truncateRowAvx2,
        simdMulScalarRowAvx2,
        simdAddScalarRowAvx2,
        simdMulVectorRowAvx2,
        simdAddVectorRowAvx2,
        scaleQuantizeRowAvx2,
        lutRowAvx2,
    };
    return set;
}

} // namespace prose::kernels
