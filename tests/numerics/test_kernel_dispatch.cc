/**
 * @file
 * The SIMD kernel layer's bit-exactness contract: every compiled tier
 * must produce results bit-identical to the scalar reference for every
 * kernel, on randomized shapes (vector-width tails included), strides,
 * and special values (+-0, +-Inf, NaN payloads, denormals). The
 * denormal cases pin the AVX512-BF16 hardware-convert path, whose raw
 * instruction is DAZ and must fall back to the emulation per chunk.
 *
 * The bf16 GEMM tile reads B packed in 64-column chunks; its cases pack
 * a row-major plane in the test (packB), and one checks every tier
 * against a plain loop over the row-major plane. It gets targeted cases
 * for its exact fused MAC: tiles whose every product is an fp32 normal
 * (the fused core), the exponent-sum bounds of that gate, subnormal and
 * zero operands, and special accumulators, each under every FTZ/DAZ
 * combination.
 *
 * The two double-accumulating reductions behind the ABFT checksums
 * (columnSumsF64, rowSumsF64) are pinned the same way: every extent
 * 1..17 and three block-crossing ones, strided rows, weighted and
 * unweighted, with and without absolute sums, special values and fp32
 * denormals, under every FTZ/DAZ combination.
 *
 * Also covered: PROSE_SIMD spec parsing (strict and lenient flavors)
 * and the pool-dispatch threshold observability counter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "numerics/bfloat16.hh"
#include "numerics/float_bits.hh"
#include "numerics/kernels/kernel_dispatch.hh"
#include "numerics/matrix.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <xmmintrin.h>
#define PROSE_TEST_HAVE_MXCSR 1
#endif

namespace prose {
namespace {

using kernels::KernelSet;
using kernels::SimdTier;

std::vector<SimdTier>
availableTiers()
{
    std::vector<SimdTier> tiers;
    for (SimdTier tier :
         { SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512 }) {
        if (kernels::simdTierAvailable(tier))
            tiers.push_back(tier);
    }
    return tiers;
}

/** Draw a float mixing normals with the special values the bf16
 *  conversions branch on. */
float
specialValue(Rng &rng)
{
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.70)
        return static_cast<float>(rng.gaussian(0.0, 4.0));
    if (pick < 0.76)
        return 0.0f;
    if (pick < 0.80)
        return -0.0f;
    if (pick < 0.84)
        return std::numeric_limits<float>::infinity();
    if (pick < 0.88)
        return -std::numeric_limits<float>::infinity();
    if (pick < 0.92)
        return std::numeric_limits<float>::quiet_NaN();
    if (pick < 0.96) {
        // Denormal fp32 (the AVX512-BF16 DAZ hazard).
        return static_cast<float>(rng.uniform(0.0, 1.0)) * 1e-41f;
    }
    // Values straddling the bf16 rounding boundary.
    return 1.0f + static_cast<float>(rng.uniform(0.0, 1.0)) * 0x1p-8f;
}

std::vector<float>
specialVector(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = specialValue(rng);
    return v;
}

std::vector<std::uint16_t>
quantize(const std::vector<float> &v)
{
    std::vector<std::uint16_t> bits(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        bits[i] = Bfloat16::roundFromFloat(v[i]);
    return bits;
}

/**
 * Strict bit equality, except that any NaN matches any NaN: IEEE 754
 * leaves payload selection to the operation (x86 propagates the first
 * NaN *source operand*, and for the scalar tier that order is whatever
 * the compiler emitted), so payload bits are explicitly outside the
 * cross-tier contract. Where the reference makes a NaN, every tier
 * must make a NaN — which NaN is unspecified.
 */
::testing::AssertionResult
bitsIdentical(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "size mismatch";
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]) && std::isnan(b[i]))
            continue;
        if (!bitsEqual(a[i], b[i])) {
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << a[i] << " vs " << b[i]
                   << " (bits " << std::hex << floatBits(a[i]) << " vs "
                   << floatBits(b[i]) << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

/**
 * The depth x cols block of the row-major plane `b` (row stride
 * bStride) in gemmTileBf16's packed B order: kBf16ChunkCols-column
 * chunks one after another, chunk c a depth x live block with row
 * stride live. Exactly depth * cols entries, so a kernel that reads
 * past the panel reads past the allocation.
 */
std::vector<std::uint16_t>
packB(const std::vector<std::uint16_t> &b, std::size_t bStride,
      std::size_t depth, std::size_t cols)
{
    std::vector<std::uint16_t> packed;
    packed.reserve(depth * cols);
    for (std::size_t jb = 0; jb < cols; jb += kernels::kBf16ChunkCols) {
        const std::size_t j_end =
            std::min(cols, jb + kernels::kBf16ChunkCols);
        for (std::size_t k = 0; k < depth; ++k)
            for (std::size_t j = jb; j < j_end; ++j)
                packed.push_back(b[k * bStride + j]);
    }
    return packed;
}

/** MXCSR flush-to-zero (bit 15) and denormals-are-zero (bit 6). */
constexpr unsigned kFtz = 0x8000u;
constexpr unsigned kDaz = 0x0040u;

/** The FTZ/DAZ combinations the cross-tier cases run under; only the
 *  default environment where MXCSR does not exist. */
std::vector<unsigned>
fpModes()
{
#ifdef PROSE_TEST_HAVE_MXCSR
    return { 0u, kFtz, kDaz, kFtz | kDaz };
#else
    return { 0u };
#endif
}

/** Sets MXCSR's FTZ/DAZ bits to `bits` for one scope. */
class ScopedFpMode
{
  public:
    explicit ScopedFpMode(unsigned bits)
    {
#ifdef PROSE_TEST_HAVE_MXCSR
        saved_ = _mm_getcsr();
        _mm_setcsr((saved_ & ~(kFtz | kDaz)) | bits);
#else
        (void)bits;
#endif
    }
    ~ScopedFpMode()
    {
#ifdef PROSE_TEST_HAVE_MXCSR
        _mm_setcsr(saved_);
#endif
    }
    ScopedFpMode(const ScopedFpMode &) = delete;
    ScopedFpMode &operator=(const ScopedFpMode &) = delete;

  private:
    unsigned saved_ = 0;
};

/** Every length 0..33, so each partial tail of the 8- and 16-lane
 *  kernels runs (after zero, one and two whole vectors), plus longer
 *  rows. */
constexpr std::size_t kLengths[] = { 0,  1,  2,  3,  4,  5,  6,  7,  8,
                                     9,  10, 11, 12, 13, 14, 15, 16, 17,
                                     18, 19, 20, 21, 22, 23, 24, 25, 26,
                                     27, 28, 29, 30, 31, 32, 33, 64, 100,
                                     257 };

TEST(KernelDispatch, RowKernelsBitIdenticalAcrossTiers)
{
    const KernelSet &ref = kernels::kernelsForTier(SimdTier::Scalar);
    for (unsigned mode : fpModes()) {
        SCOPED_TRACE(::testing::Message()
                     << "ftz/daz bits 0x" << std::hex << mode);
        for (SimdTier tier : availableTiers()) {
            const KernelSet &ks = kernels::kernelsForTier(tier);
            Rng rng(1234);
            for (std::size_t n : kLengths) {
                const std::vector<float> src = specialVector(rng, n);
                const std::vector<float> acc0 = specialVector(rng, n);
                const std::vector<std::uint16_t> bits = quantize(src);
                const float av = specialValue(rng);
                // The scalar operand is pre-quantized per contract.
                const float q = quantizeBf16(av);

                ScopedFpMode fp(mode);
                std::vector<float> got, want;

                // quantizeBitsRow
                std::vector<std::uint16_t> qgot(n), qwant(n);
                ks.quantizeBitsRow(qgot.data(), src.data(), n);
                ref.quantizeBitsRow(qwant.data(), src.data(), n);
                EXPECT_EQ(qgot, qwant)
                    << ks.name << " quantizeBitsRow n=" << n;

                // widenRow
                got.assign(n, 0.0f);
                want.assign(n, 0.0f);
                ks.widenRow(got.data(), bits.data(), n);
                ref.widenRow(want.data(), bits.data(), n);
                EXPECT_TRUE(bitsIdentical(got, want))
                    << ks.name << " widenRow n=" << n;

                // quantizeRoundtripRow (out-of-place and in-place)
                got.assign(n, 0.0f);
                want.assign(n, 0.0f);
                ks.quantizeRoundtripRow(got.data(), src.data(), n);
                ref.quantizeRoundtripRow(want.data(), src.data(), n);
                EXPECT_TRUE(bitsIdentical(got, want))
                    << ks.name << " quantizeRoundtripRow n=" << n;
                std::vector<float> inplace = src;
                ks.quantizeRoundtripRow(inplace.data(), inplace.data(), n);
                EXPECT_TRUE(bitsIdentical(inplace, want))
                    << ks.name << " quantizeRoundtripRow in-place n=" << n;

                // truncateRow
                got.assign(n, 0.0f);
                want.assign(n, 0.0f);
                ks.truncateRow(got.data(), src.data(), n);
                ref.truncateRow(want.data(), src.data(), n);
                EXPECT_TRUE(bitsIdentical(got, want))
                    << ks.name << " truncateRow n=" << n;

                // SIMD-unit rows
                got = acc0;
                want = acc0;
                ks.simdMulScalarRow(got.data(), q, n);
                ref.simdMulScalarRow(want.data(), q, n);
                EXPECT_TRUE(bitsIdentical(got, want))
                    << ks.name << " simdMulScalarRow n=" << n;

                got = acc0;
                want = acc0;
                ks.simdAddScalarRow(got.data(), q, n);
                ref.simdAddScalarRow(want.data(), q, n);
                EXPECT_TRUE(bitsIdentical(got, want))
                    << ks.name << " simdAddScalarRow n=" << n;

                got = acc0;
                want = acc0;
                ks.simdMulVectorRow(got.data(), src.data(), n);
                ref.simdMulVectorRow(want.data(), src.data(), n);
                EXPECT_TRUE(bitsIdentical(got, want))
                    << ks.name << " simdMulVectorRow n=" << n;

                got = acc0;
                want = acc0;
                ks.simdAddVectorRow(got.data(), src.data(), n);
                ref.simdAddVectorRow(want.data(), src.data(), n);
                EXPECT_TRUE(bitsIdentical(got, want))
                    << ks.name << " simdAddVectorRow n=" << n;

                // scaleQuantizeRow
                got = src;
                want = src;
                ks.scaleQuantizeRow(got.data(), av, n);
                ref.scaleQuantizeRow(want.data(), av, n);
                EXPECT_TRUE(bitsIdentical(got, want))
                    << ks.name << " scaleQuantizeRow n=" << n;
            }
        }
    }
}

TEST(KernelDispatch, GemmTileBitIdenticalAcrossTiersWithStrides)
{
    // Every tier against a plain loop over the row-major B (so the
    // packed layout itself is pinned, not only cross-tier agreement).
    struct Shape
    {
        std::size_t rows, cols, depth;
    };
    // Tails below/above the 8/16/32/64-lane block widths, several
    // packed chunks, plus strided A and accumulator views as the
    // tiled matmul produces them.
    const Shape shapes[] = { { 1, 1, 1 },    { 3, 5, 7 },
                             { 4, 16, 8 },   { 5, 17, 9 },
                             { 8, 33, 16 },  { 2, 64, 12 },
                             { 3, 65, 5 },   { 6, 128, 10 },
                             { 7, 100, 23 }, { 5, 130, 129 } };
    for (SimdTier tier : availableTiers()) {
        const KernelSet &ks = kernels::kernelsForTier(tier);
        Rng rng(99);
        for (const Shape &s : shapes) {
            const std::size_t aStride = s.depth + 3;
            const std::size_t bStride = s.cols + 5;
            const std::size_t cStride = s.cols + 2;
            std::vector<std::uint16_t> a =
                quantize(specialVector(rng, s.rows * aStride));
            std::vector<std::uint16_t> b =
                quantize(specialVector(rng, s.depth * bStride));
            const std::vector<float> c0 =
                specialVector(rng, s.rows * cStride);

            std::vector<float> got = c0, want = c0;
            ks.gemmTileBf16(got.data(), cStride, a.data(), aStride,
                            packB(b, bStride, s.depth, s.cols).data(),
                            s.rows, s.cols, s.depth);
            for (std::size_t i = 0; i < s.rows; ++i)
                for (std::size_t j = 0; j < s.cols; ++j)
                    for (std::size_t k = 0; k < s.depth; ++k)
                        want[i * cStride + j] +=
                            Bfloat16::fromBits(a[i * aStride + k])
                                .toFloat() *
                            Bfloat16::fromBits(b[k * bStride + j])
                                .toFloat();
            EXPECT_TRUE(bitsIdentical(got, want))
                << ks.name << " gemmTileBf16 " << s.rows << "x" << s.cols
                << "x" << s.depth;
        }
    }
}

// --- gemmTileBf16's exact fused MAC ----------------------------------

/** bf16 bits from a sign, a biased exponent and a 7-bit mantissa. */
std::uint16_t
bf16Bits(bool negative, unsigned exponent, unsigned mantissa)
{
    return static_cast<std::uint16_t>((negative ? 0x8000u : 0u) |
                                      (exponent << 7) | (mantissa & 0x7fu));
}

/**
 * n bf16 entries with biased exponents drawn from [lo, hi] and random
 * mantissas; a `zeros` share of them are +-0 and, when `signs` is set,
 * half the rest are negative. Exponent 0 draws subnormals (the mantissa
 * is forced nonzero).
 */
std::vector<std::uint16_t>
exponentPlane(Rng &rng, std::size_t n, unsigned lo, unsigned hi,
              double zeros = 0.0, bool signs = true)
{
    std::vector<std::uint16_t> bits(n);
    for (std::uint16_t &x : bits) {
        const bool negative = signs && rng.below(2) == 1;
        if (rng.uniform(0.0, 1.0) < zeros) {
            x = bf16Bits(negative, 0, 0);
            continue;
        }
        const auto e = static_cast<unsigned>(lo + rng.below(hi - lo + 1));
        auto m = static_cast<unsigned>(rng.below(128));
        if (e == 0 && m == 0)
            m = 1;
        x = bf16Bits(negative, e, m);
    }
    return bits;
}

/** An rows x cols x depth problem with strided A and accumulator; B is
 *  drawn row-major with a stride and packed for the kernel call. */
struct TileCase
{
    std::size_t rows, cols, depth;
    std::size_t aStride, bStride, cStride;
    std::vector<std::uint16_t> a, b;
    std::vector<float> c0;

    TileCase(std::size_t rows_, std::size_t cols_, std::size_t depth_)
        : rows(rows_), cols(cols_), depth(depth_), aStride(depth_ + 3),
          bStride(cols_ + 5), cStride(cols_ + 2)
    {
    }
};

/**
 * Every tier's gemmTileBf16 against the scalar tier's on the packed B,
 * with both run under each FTZ/DAZ combination (the gate must hold
 * under all of them).
 */
::testing::AssertionResult
gemmTileMatchesScalar(const TileCase &t)
{
    const KernelSet &ref = kernels::kernelsForTier(SimdTier::Scalar);
    const std::vector<std::uint16_t> b =
        packB(t.b, t.bStride, t.depth, t.cols);
    for (unsigned mode : fpModes()) {
        for (SimdTier tier : availableTiers()) {
            const KernelSet &ks = kernels::kernelsForTier(tier);
            std::vector<float> got = t.c0, want = t.c0;
            {
                ScopedFpMode fp(mode);
                ks.gemmTileBf16(got.data(), t.cStride, t.a.data(),
                                t.aStride, b.data(), t.rows, t.cols,
                                t.depth);
                ref.gemmTileBf16(want.data(), t.cStride, t.a.data(),
                                 t.aStride, b.data(), t.rows, t.cols,
                                 t.depth);
            }
            ::testing::AssertionResult same = bitsIdentical(got, want);
            if (!same) {
                return same << " (" << ks.name << ", " << t.rows << "x"
                            << t.cols << "x" << t.depth
                            << ", ftz/daz bits 0x" << std::hex << mode
                            << ")";
            }
        }
    }
    return ::testing::AssertionSuccess();
}

/** Row counts through the 6-row blocks' 1..5-row remainders, column
 *  counts through the 8- and 16-lane tails and the 16-, 64-column
 *  blocks, and depths across one and several B chunks. */
std::vector<TileCase>
remainderShapes()
{
    std::vector<TileCase> shapes;
    const std::size_t col_depths[][2] = { { 1, 1 },     { 5, 7 },
                                          { 17, 9 },    { 46, 16 },
                                          { 64, 128 },  { 65, 3 },
                                          { 130, 131 }, { 100, 200 } };
    for (std::size_t rows : { 1, 2, 3, 4, 5, 6, 7, 13 })
        for (const auto &cd : col_depths)
            shapes.emplace_back(rows, cd[0], cd[1]);
    return shapes;
}

TEST(KernelDispatch, GemmTileFusedNormalTilesMatchScalar)
{
    // All-finite normal operands whose exponent sums sit well inside
    // [128, 380]: every (row block x B chunk) takes the fused core.
    // Accumulators carry +-Inf, NaN, +-0, denormals and normals.
    Rng rng(4242);
    for (TileCase t : remainderShapes()) {
        t.a = exponentPlane(rng, t.rows * t.aStride, 100, 150);
        t.b = exponentPlane(rng, t.depth * t.bStride, 100, 150);
        t.c0 = specialVector(rng, t.rows * t.cStride);
        EXPECT_TRUE(gemmTileMatchesScalar(t));
    }
}

TEST(KernelDispatch, GemmTileFusedZeroProductsMatchScalar)
{
    // +-0 x finite products inside fused blocks, against +0 and -0
    // accumulators (whose sums are where a sign slip would show), plus
    // an all-zero A tile, whose envelope is the neutral one.
    Rng rng(77);
    for (TileCase t : remainderShapes()) {
        t.a = exponentPlane(rng, t.rows * t.aStride, 110, 140, 0.5);
        t.b = exponentPlane(rng, t.depth * t.bStride, 110, 140, 0.3);
        t.c0.resize(t.rows * t.cStride);
        for (float &c : t.c0)
            c = rng.below(2) == 1 ? -0.0f : 0.0f;
        EXPECT_TRUE(gemmTileMatchesScalar(t));
        std::fill(t.a.begin(), t.a.end(), bf16Bits(true, 0, 0));
        EXPECT_TRUE(gemmTileMatchesScalar(t));
    }
}

TEST(KernelDispatch, GemmTileFusedGateBoundsMatchScalar)
{
    // Uniform exponents per operand put every product's exponent sum
    // exactly at a gate bound or one past it. The accumulators make a
    // wrongly fused product visible:
    //  - sum 381: products reach [2^128, 2^129) and overflow to +Inf in
    //    the separate multiply, while a fused MAC against the most
    //    negative bf16 value lands finite;
    //  - sum 127: products below 2^-126 are subnormal, which FTZ
    //    flushes in the separate multiply, while a fused MAC adds them
    //    exactly to 2^-120.
    // At the bounds (128, 380) every product is normal and exact.
    struct Bound
    {
        unsigned ea, eb;
        float c;
    };
    const float most_negative = -Bfloat16::fromBits(
        bf16Bits(false, 254, 0x7f)).toFloat();
    const float tiny = std::ldexp(1.0f, -120);
    const Bound bounds[] = {
        { 64, 64, tiny },   { 1, 127, tiny },           // sum 128
        { 64, 63, tiny },   { 1, 126, tiny },           // sum 127
        { 254, 126, most_negative },                    // sum 380
        { 190, 190, most_negative },                    // sum 380
        { 254, 127, most_negative },                    // sum 381
        { 191, 190, most_negative },                    // sum 381
    };
    Rng rng(381);
    for (const Bound &bound : bounds) {
        for (std::size_t depth : { 1, 2 }) {
            TileCase t(7, 70, depth);
            t.a = exponentPlane(rng, t.rows * t.aStride, bound.ea,
                                bound.ea, 0.0, false);
            t.b = exponentPlane(rng, t.depth * t.bStride, bound.eb,
                                bound.eb, 0.0, false);
            t.c0.assign(t.rows * t.cStride, bound.c);
            EXPECT_TRUE(gemmTileMatchesScalar(t))
                << "exponent sum " << bound.ea + bound.eb;
        }
    }
}

TEST(KernelDispatch, GemmTileSubnormalOperandsMatchScalar)
{
    // Subnormal entries (exponent field 0) against partners large
    // enough that their products would pass the exponent-sum test if
    // subnormals were not flagged: many products are still subnormal,
    // which FTZ flushes in the separate multiply. Both operand sides.
    Rng rng(13);
    const float tiny = std::ldexp(1.0f, -120);
    for (TileCase t : remainderShapes()) {
        for (bool subnormal_a : { true, false }) {
            t.a = subnormal_a
                      ? exponentPlane(rng, t.rows * t.aStride, 0, 0)
                      : exponentPlane(rng, t.rows * t.aStride, 128, 130);
            t.b = subnormal_a
                      ? exponentPlane(rng, t.depth * t.bStride, 128, 130)
                      : exponentPlane(rng, t.depth * t.bStride, 0, 0);
            t.c0.assign(t.rows * t.cStride, tiny);
            EXPECT_TRUE(gemmTileMatchesScalar(t));
        }
    }
}

TEST(KernelDispatch, GemmTileMixedRowBlocksMatchScalar)
{
    // 19 rows = three full 6-row blocks and a 1-row remainder. Block 1
    // holds an Inf and block 3 an exponent too small for the gate, so
    // fused and unfused runs alternate within one call.
    Rng rng(19);
    TileCase t(19, 70, 20);
    t.a = exponentPlane(rng, t.rows * t.aStride, 110, 140);
    t.b = exponentPlane(rng, t.depth * t.bStride, 110, 140);
    t.a[7 * t.aStride + 3] = bf16Bits(false, 255, 0);
    t.a[18 * t.aStride + 5] = bf16Bits(true, 5, 17);
    t.c0 = specialVector(rng, t.rows * t.cStride);
    EXPECT_TRUE(gemmTileMatchesScalar(t));
}

TEST(KernelDispatch, GemmTileF32BitIdenticalAcrossTiersWithStrides)
{
    // remainderShapes() crosses the register blocks' row remainders and
    // the column tails; strided views as the tiled matmul produces them.
    const KernelSet &ref = kernels::kernelsForTier(SimdTier::Scalar);
    Rng rng(1234);
    for (const TileCase &t : remainderShapes()) {
        const std::vector<float> a = specialVector(rng, t.rows * t.aStride);
        const std::vector<float> b =
            specialVector(rng, t.depth * t.bStride);
        const std::vector<float> c0 = specialVector(rng, t.rows * t.cStride);
        for (unsigned mode : fpModes()) {
            for (SimdTier tier : availableTiers()) {
                const KernelSet &ks = kernels::kernelsForTier(tier);
                std::vector<float> got = c0, want = c0;
                {
                    ScopedFpMode fp(mode);
                    ks.gemmTileF32(got.data(), t.cStride, a.data(),
                                   t.aStride, b.data(), t.bStride, t.rows,
                                   t.cols, t.depth);
                    ref.gemmTileF32(want.data(), t.cStride, a.data(),
                                    t.aStride, b.data(), t.bStride, t.rows,
                                    t.cols, t.depth);
                }
                EXPECT_TRUE(bitsIdentical(got, want))
                    << ks.name << " gemmTileF32 " << t.rows << "x"
                    << t.cols << "x" << t.depth << ", ftz/daz bits 0x"
                    << std::hex << mode;
            }
        }
    }
}

TEST(KernelDispatch, LutRowBitIdenticalAcrossTiers)
{
    // Exhaustive over the index domain: a flat activation table is
    // addressed by the high 16 bits of each accumulator, so feed every
    // one of the 65536 bf16 bit patterns through every tier (plus tail
    // lengths below the gather width) and demand the exact table entry
    // the scalar reference picks. Low-half bits are set nonzero to pin
    // that they never leak into the index.
    const KernelSet &ref = kernels::kernelsForTier(SimdTier::Scalar);
    std::vector<std::uint32_t> table(65536);
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = static_cast<std::uint32_t>(i) * 2654435761u;
    std::vector<float> inputs(65536);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const std::uint32_t bits =
            (static_cast<std::uint32_t>(i) << 16) | 0x1234u;
        std::memcpy(&inputs[i], &bits, sizeof(float));
    }
    auto rawBits = [](const std::vector<float> &v) {
        std::vector<std::uint32_t> bits(v.size());
        // An empty vector's data() may be null, and memcpy from null is
        // undefined even for zero bytes.
        if (!v.empty())
            std::memcpy(bits.data(), v.data(),
                        v.size() * sizeof(std::uint32_t));
        return bits;
    };
    for (SimdTier tier : availableTiers()) {
        const KernelSet &ks = kernels::kernelsForTier(tier);
        std::vector<float> got = inputs, want = inputs;
        ks.lutRow(got.data(), table.data(), got.size());
        ref.lutRow(want.data(), table.data(), want.size());
        EXPECT_EQ(rawBits(got), rawBits(want))
            << ks.name << " lutRow exhaustive";
        for (std::size_t n : kLengths) {
            got.assign(inputs.begin(),
                       inputs.begin() + static_cast<std::ptrdiff_t>(n));
            want = got;
            ks.lutRow(got.data(), table.data(), n);
            ref.lutRow(want.data(), table.data(), n);
            EXPECT_EQ(rawBits(got), rawBits(want))
                << ks.name << " lutRow n=" << n;
        }
    }
}

/**
 * Bit equality for the f64 reductions' outputs, any NaN matching any
 * NaN (the payload is outside the contract, as for bitsIdentical).
 * `got` and `want` hold n outputs and then a tail of sentinels that a
 * kernel must not overwrite.
 */
::testing::AssertionResult
sumsIdentical(const std::vector<double> &got,
              const std::vector<double> &want, std::size_t n)
{
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (i < n && std::isnan(got[i]) && std::isnan(want[i]))
            continue;
        if (!bitsEqual(got[i], want[i])) {
            return ::testing::AssertionFailure()
                   << (i < n ? "output " : "sentinel ") << i << ": "
                   << got[i] << " vs " << want[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/** A plane element for the f64 reductions: mostly normals, fp32
 *  denormals (which DAZ reads as zero), and specialValue()'s mix of
 *  +-0, +-Inf and NaN at `special_rate`. */
float
reductionValue(Rng &rng, double special_rate)
{
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < special_rate)
        return specialValue(rng);
    if (pick < special_rate + 0.05)
        return static_cast<float>(rng.gaussian(0.0, 1.0)) * 1e-40f;
    return static_cast<float>(rng.gaussian(0.0, 2.0));
}

/** A weight: mostly normals, with +-0 and magnitudes whose products
 *  with an fp32 denormal underflow (which FTZ flushes). */
double
reductionWeight(Rng &rng)
{
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.05)
        return 0.0;
    if (pick < 0.10)
        return -0.0;
    if (pick < 0.15)
        return rng.gaussian(0.0, 1.0) * 1e-290;
    return rng.gaussian(0.0, 3.0);
}

TEST(KernelDispatch, F64ReductionsBitIdenticalAcrossTiers)
{
    // Every extent 1..17 covers each partial eight-lane group after
    // zero, one and two whole groups; 63, 65 and 129 cross the column
    // blocks and the eight-row blocks. The plane's row padding holds
    // NaN, so a kernel that reads past a row shows up in its sums.
    std::vector<std::size_t> extents;
    for (std::size_t e = 1; e <= 17; ++e)
        extents.push_back(e);
    for (std::size_t e : { 63, 65, 129 })
        extents.push_back(e);
    constexpr std::size_t kPad = 5, kSentinels = 9;
    constexpr double kSentinel = 12345.0;
    const KernelSet &ref = kernels::kernelsForTier(SimdTier::Scalar);
    for (unsigned mode : fpModes()) {
        SCOPED_TRACE(::testing::Message()
                     << "ftz/daz bits 0x" << std::hex << mode);
        for (SimdTier tier : availableTiers()) {
            const KernelSet &ks = kernels::kernelsForTier(tier);
            Rng rng(4242);
            for (std::size_t rows : extents) {
                for (std::size_t cols : extents) {
                    const double special_rate =
                        (rows + cols) % 3 == 0 ? 0.3 : 0.01;
                    const std::size_t stride = cols + kPad;
                    std::vector<float> x(
                        rows * stride,
                        std::numeric_limits<float>::quiet_NaN());
                    for (std::size_t i = 0; i < rows; ++i)
                        for (std::size_t c = 0; c < cols; ++c)
                            x[i * stride + c] =
                                reductionValue(rng, special_rate);
                    std::vector<double> w_row(rows), abs_w_row(rows),
                        w_col(cols), abs_w_col(cols);
                    for (std::size_t i = 0; i < rows; ++i) {
                        w_row[i] = reductionWeight(rng);
                        abs_w_row[i] = std::fabs(w_row[i]);
                    }
                    for (std::size_t c = 0; c < cols; ++c) {
                        w_col[c] = reductionWeight(rng);
                        abs_w_col[c] = std::fabs(w_col[c]);
                    }

                    ScopedFpMode fp(mode);
                    for (bool weighted : { false, true }) {
                        for (bool with_abs : { false, true }) {
                            auto check = [&](auto kernel,
                                             std::size_t outputs,
                                             const std::vector<double> &w,
                                             const std::vector<double>
                                                 &abs_w,
                                             const char *what) {
                                std::vector<double> sum_got(
                                    outputs + kSentinels, kSentinel);
                                std::vector<double> abs_got = sum_got;
                                std::vector<double> sum_want = sum_got;
                                std::vector<double> abs_want = sum_got;
                                const double *wp =
                                    weighted ? w.data() : nullptr;
                                const double *awp =
                                    weighted ? abs_w.data() : nullptr;
                                (ks.*kernel)(sum_got.data(),
                                             with_abs ? abs_got.data()
                                                      : nullptr,
                                             x.data(), stride, rows, cols,
                                             wp, awp);
                                (ref.*kernel)(sum_want.data(),
                                              with_abs ? abs_want.data()
                                                       : nullptr,
                                              x.data(), stride, rows,
                                              cols, wp, awp);
                                EXPECT_TRUE(sumsIdentical(
                                    sum_got, sum_want, outputs))
                                    << ks.name << " " << what << " sum "
                                    << rows << "x" << cols
                                    << " weighted=" << weighted
                                    << " abs=" << with_abs;
                                EXPECT_TRUE(sumsIdentical(
                                    abs_got, abs_want, outputs))
                                    << ks.name << " " << what
                                    << " absSum " << rows << "x" << cols
                                    << " weighted=" << weighted
                                    << " abs=" << with_abs;
                            };
                            check(&KernelSet::columnSumsF64, cols, w_row,
                                  abs_w_row, "columnSumsF64");
                            check(&KernelSet::rowSumsF64, rows, w_col,
                                  abs_w_col, "rowSumsF64");
                        }
                    }
                }
            }
        }
    }
}

TEST(KernelDispatch, GemmTileDoesNotSkipZeroTimesInf)
{
    // The stepped engine MACs every valid element, so 0 * Inf must
    // produce NaN in every tier — no zero-skip shortcuts.
    for (SimdTier tier : availableTiers()) {
        const KernelSet &ks = kernels::kernelsForTier(tier);
        const std::uint16_t zero = Bfloat16::roundFromFloat(0.0f);
        const std::uint16_t inf = Bfloat16::roundFromFloat(
            std::numeric_limits<float>::infinity());
        std::vector<float> acc(1, 0.0f);
        ks.gemmTileBf16(acc.data(), 1, &zero, 1, &inf, 1, 1, 1);
        EXPECT_TRUE(std::isnan(acc[0]))
            << ks.name << ": 0 * Inf must be NaN";

        const float fzero = 0.0f;
        const float finf = std::numeric_limits<float>::infinity();
        acc[0] = 0.0f;
        ks.gemmTileF32(acc.data(), 1, &fzero, 1, &finf, 1, 1, 1, 1);
        EXPECT_TRUE(std::isnan(acc[0]))
            << ks.name << ": fp32 0 * Inf must be NaN";
    }
}

TEST(KernelDispatch, ActiveTierSwitchAndRestore)
{
    const SimdTier original = kernels::activeSimdTier();
    for (SimdTier tier : availableTiers()) {
        kernels::setActiveSimdTier(tier);
        EXPECT_EQ(kernels::activeSimdTier(), tier);
        EXPECT_STREQ(kernels::activeKernels().name,
                     kernels::toString(tier));
    }
    kernels::setActiveSimdTier(original);
    EXPECT_EQ(kernels::activeSimdTier(), original);
}

TEST(KernelDispatch, MatmulBf16BitIdenticalAcrossTiers)
{
    // End-to-end: the full bf16 matmul (scratch + bits plane + pooled
    // kernels) must agree bit-for-bit across every available tier.
    const SimdTier original = kernels::activeSimdTier();
    Rng rng(7);
    Matrix a(13, 37);
    Matrix b(37, 21);
    a.fillGaussian(rng, 0.0f, 2.0f);
    b.fillGaussian(rng, 0.0f, 2.0f);

    kernels::setActiveSimdTier(SimdTier::Scalar);
    const Matrix want = matmulBf16(a, b);
    for (SimdTier tier : availableTiers()) {
        kernels::setActiveSimdTier(tier);
        const Matrix got = matmulBf16(a, b);
        EXPECT_EQ(Matrix::maxAbsDiff(got, want), 0.0f)
            << "tier " << kernels::toString(tier);
    }
    kernels::setActiveSimdTier(original);
}

TEST(KernelDispatch, MatmulF32BitIdenticalAcrossTiers)
{
    // End-to-end over the rewired fp32 tiled matmul (kKBlock/kJBlock
    // blocking on top of gemmTileF32), including a non-finite B entry
    // so the no-zero-skip contract is exercised through the public API.
    const SimdTier original = kernels::activeSimdTier();
    Rng rng(21);
    Matrix a(13, 37);
    Matrix b(37, 21);
    a.fillGaussian(rng, 0.0f, 2.0f);
    b.fillGaussian(rng, 0.0f, 2.0f);
    a.at(2, 3) = 0.0f;
    b.at(3, 4) = std::numeric_limits<float>::infinity();

    kernels::setActiveSimdTier(SimdTier::Scalar);
    const Matrix want = matmul(a, b);
    for (SimdTier tier : availableTiers()) {
        kernels::setActiveSimdTier(tier);
        const Matrix got = matmul(a, b);
        const float *gp = got.data();
        const float *wp = want.data();
        bool same = got.size() == want.size();
        for (std::size_t i = 0; same && i < got.size(); ++i) {
            if (std::isnan(gp[i]) && std::isnan(wp[i]))
                continue;
            same = bitsEqual(gp[i], wp[i]);
        }
        EXPECT_TRUE(same) << "tier " << kernels::toString(tier);
    }
    kernels::setActiveSimdTier(original);
}

TEST(KernelDispatchSpec, StrictParseAcceptsKnownTiers)
{
    EXPECT_EQ(kernels::parseSimdTier("scalar"), SimdTier::Scalar);
    EXPECT_EQ(kernels::parseSimdTier("avx2"), SimdTier::Avx2);
    EXPECT_EQ(kernels::parseSimdTier("avx512"), SimdTier::Avx512);
    EXPECT_EQ(kernels::parseSimdTier("auto"), kernels::bestSimdTier());
}

using KernelDispatchSpecDeathTest = ::testing::Test;

TEST(KernelDispatchSpecDeathTest, StrictParseRejectsUnknownTier)
{
    EXPECT_DEATH(kernels::parseSimdTier("sse9"), "unknown SIMD tier");
    EXPECT_DEATH(kernels::parseSimdTier(""), "unknown SIMD tier");
}

TEST(KernelDispatchSpec, LenientSpecFallsBackToAuto)
{
    EXPECT_EQ(kernels::simdTierFromSpec(nullptr),
              kernels::bestSimdTier());
    EXPECT_EQ(kernels::simdTierFromSpec(""), kernels::bestSimdTier());
    EXPECT_EQ(kernels::simdTierFromSpec("auto"),
              kernels::bestSimdTier());
    // Unknown names warn (not fatal) and fall back — environment input
    // must never kill a run.
    EXPECT_EQ(kernels::simdTierFromSpec("turbo9000"),
              kernels::bestSimdTier());
    EXPECT_EQ(kernels::simdTierFromSpec("scalar"), SimdTier::Scalar);
}

TEST(KernelDispatchSpec, TierNamesRoundTrip)
{
    for (SimdTier tier :
         { SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512 })
        EXPECT_EQ(kernels::parseSimdTier(kernels::toString(tier)), tier);
}

TEST(KernelDispatchSpec, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(kernels::simdTierAvailable(SimdTier::Scalar));
    // bestSimdTier must itself be runnable.
    EXPECT_TRUE(kernels::simdTierAvailable(kernels::bestSimdTier()));
}

TEST(MatmulPoolThreshold, SmallShapesStaySerialLargeShapesDispatch)
{
    // Threshold semantics are observable through the pool's dispatch
    // counter: a 128x768x768 GEMM (75.5M MACs, under the 2^25-per-lane
    // floor on 4 lanes — the bench shape whose pooled twin recorded a
    // loss to serial) must run inline, a 640^3 one (262M MACs, ~65.5M
    // per lane) must fan out when lanes are available. (512^3 would sit
    // exactly on the 4-lane boundary — 134,217,728 == 4 * 2^25 — so the
    // dispatching shape is chosen comfortably above it.)
    ThreadPool pool(4);
    ThreadPool::setGlobalOverride(&pool);

    Rng rng(11);
    Matrix small_a(128, 768), small_b(768, 768);
    small_a.fillGaussian(rng, 0.0f, 1.0f);
    small_b.fillGaussian(rng, 0.0f, 1.0f);
    const std::uint64_t before_small = ThreadPool::dispatchCount();
    matmul(small_a, small_b);
    EXPECT_EQ(ThreadPool::dispatchCount(), before_small)
        << "128x768x768 is below the per-lane MAC floor and must not "
           "pay pool dispatch";

    Matrix big_a(640, 640), big_b(640, 640);
    big_a.fillGaussian(rng, 0.0f, 1.0f);
    big_b.fillGaussian(rng, 0.0f, 1.0f);
    const std::uint64_t before_big = ThreadPool::dispatchCount();
    matmul(big_a, big_b);
    EXPECT_GT(ThreadPool::dispatchCount(), before_big)
        << "640^3 clears the per-lane MAC floor on 4 lanes and must "
           "fan out";

    ThreadPool::setGlobalOverride(nullptr);
}

TEST(MatmulPoolThreshold, SerialPoolNeverDispatches)
{
    // With one lane the threshold is moot: nothing may reach the pool.
    ThreadPool pool(1);
    ThreadPool::setGlobalOverride(&pool);
    Rng rng(12);
    Matrix a(256, 256), b(256, 256);
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    const std::uint64_t before = ThreadPool::dispatchCount();
    matmul(a, b);
    matmulBf16(a, b);
    EXPECT_EQ(ThreadPool::dispatchCount(), before);
    ThreadPool::setGlobalOverride(nullptr);
}

} // namespace
} // namespace prose
