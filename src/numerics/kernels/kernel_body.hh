/**
 * @file
 * Every SIMD kernel once, as templates over a per-tier traits type T.
 * Each SIMD tier TU (kernels_avx2.cc, kernels_avx512.cc) defines its
 * traits and a KernelSet table of kernelSet<T>(); its own -m flags and
 * -ffp-contract=off decide the code the templates become.
 *
 * Linkage rule: every definition here sits in an unnamed namespace, and
 * nothing here instantiates std:: templates or calls baseline inline
 * helpers (std::min, std::vector, Bfloat16::*). The header is compiled
 * under several -m flag sets; a definition with external linkage would
 * become a weak (COMDAT) copy that the linker may merge with another
 * TU's, so the scalar tier or an AVX2-only CPU could end up running
 * AVX-512 code. CI checks it with nm on the tier objects.
 *
 * Numerics: vectorization is across independent j lanes only, and each
 * accumulator sees its fp32 operations in exactly the scalar reference's
 * order. The bf16 conversions are the reference's integer bit
 * manipulations, kLanes at a time: round-to-nearest-even is
 * `bits + 0x7fff + ((bits >> 16) & 1)` and the NaN path forces the quiet
 * bit, both exact for every input, denormals and signed zeros included.
 * A MAC is fused only on a tier with kFusedMac, and there only where
 * productsExact() proves the fused and separate forms give equal bits.
 *
 * The traits type T provides:
 *   - Vec, Bits: kLanes-lane fp32 and 32-bit integer vectors, with the
 *     bit casts bits(Vec) and floats(Bits);
 *   - Tail and tail(live), the first `live` lanes (1 <= live <= kLanes);
 *     every access below takes either Full{} or a Tail;
 *   - load/store of fp32 lanes (u32 lanes go through the bit casts),
 *     widen (bf16 bits to fp32) and storeBf16 (the low 16 bits of each
 *     lane); partial forms touch no memory outside the live lanes and
 *     read dead lanes as zero;
 *   - splat, bitAnd, bitOr, add32, shr16, shr23 and selectGt, the
 *     integer ops behind RNE rounding and the NaN select, and gather;
 *   - zero, broadcast, add and mul on Vec;
 *   - the GEMM register block, kRowBlock rows x kMaxVecs vectors;
 *   - kFusedMac; when true, also fmadd, min32, max32, reduceMin32 and
 *     reduceMax32 for the exact-product gate;
 *   - for the f64 reductions: VecD, eight double lanes, with widenD (8
 *     fp32 lanes to double, exact), zeroD, broadcastD, addD, mulD, absD
 *     and storeD (the first `live` lanes), and kSumGroups, how many
 *     eight-column groups the column reduction keeps in registers.
 */

#ifndef PROSE_NUMERICS_KERNELS_KERNEL_BODY_HH
#define PROSE_NUMERICS_KERNELS_KERNEL_BODY_HH

#include <immintrin.h>

#include "kernel_tiers.hh"

namespace prose::kernels {

namespace {

/** Lane-set tag for a whole vector. */
struct Full
{
};

inline std::size_t
minSize(std::size_t a, std::size_t b)
{
    return a < b ? a : b;
}

/** op(j, lanes) over [0, n): whole vectors, then one partial tail. */
template <class T, class Op>
inline void
forEachVector(std::size_t n, Op op)
{
    std::size_t j = 0;
    for (; j + T::kLanes <= n; j += T::kLanes)
        op(j, Full{});
    if (j < n)
        op(j, T::tail(n - j));
}

// --- bf16 conversions ------------------------------------------------
// Vector constants are built inside each helper (never at namespace
// scope: a static initializer would execute vector instructions before
// main() even on CPUs the dispatcher would reject).

template <class T>
inline typename T::Bits
hiMask()
{
    return T::splat(0xffff0000u);
}

/** `normal`, with `nan` in the lanes where `bits` holds a NaN. */
template <class T>
inline typename T::Bits
selectNan(typename T::Bits bits, typename T::Bits normal,
          typename T::Bits nan)
{
    // abs(bits) <= 0x7fffffff, so the signed compare is an unsigned one.
    return T::selectGt(T::bitAnd(bits, T::splat(0x7fffffffu)),
                       T::splat(0x7f800000u), normal, nan);
}

/** `bits + 0x7fff + ((bits >> 16) & 1)` — the RNE bias add. */
template <class T>
inline typename T::Bits
rneRounded(typename T::Bits bits)
{
    const typename T::Bits lsb = T::bitAnd(T::shr16(bits), T::splat(1));
    return T::add32(bits, T::add32(lsb, T::splat(0x7fff)));
}

/** quantizeBf16 round trip: fp32 -> bf16 (RNE) -> fp32. */
template <class T>
inline typename T::Vec
quantRoundtrip(typename T::Vec v)
{
    const typename T::Bits bits = T::bits(v);
    const typename T::Bits normal =
        T::bitAnd(rneRounded<T>(bits), hiMask<T>());
    const typename T::Bits nan = T::bitOr(T::bitAnd(bits, hiMask<T>()),
                                          T::splat(0x00400000u));
    return T::floats(selectNan<T>(bits, normal, nan));
}

/** fp32 -> bf16 bit pattern in the low 16 bits of each lane. */
template <class T>
inline typename T::Bits
quantBits16(typename T::Vec v)
{
    const typename T::Bits bits = T::bits(v);
    const typename T::Bits normal = T::shr16(rneRounded<T>(bits));
    const typename T::Bits nan =
        T::bitOr(T::shr16(bits), T::splat(0x0040u));
    return selectNan<T>(bits, normal, nan);
}

/** truncateBf16: drop the low 16 bits. */
template <class T>
inline typename T::Vec
truncate(typename T::Vec v)
{
    return T::floats(T::bitAnd(T::bits(v), hiMask<T>()));
}

// --- row kernels -----------------------------------------------------

template <class T>
void
quantizeBitsRow(std::uint16_t *dst, const float *src, std::size_t n)
{
    forEachVector<T>(n, [&](std::size_t j, auto lanes) {
        T::storeBf16(dst + j, lanes, quantBits16<T>(T::load(src + j, lanes)));
    });
}

template <class T>
void
widenRow(float *dst, const std::uint16_t *src, std::size_t n)
{
    forEachVector<T>(n, [&](std::size_t j, auto lanes) {
        T::store(dst + j, lanes, T::widen(src + j, lanes));
    });
}

template <class T>
void
quantizeRoundtripRow(float *dst, const float *src, std::size_t n)
{
    forEachVector<T>(n, [&](std::size_t j, auto lanes) {
        T::store(dst + j, lanes, quantRoundtrip<T>(T::load(src + j, lanes)));
    });
}

template <class T>
void
truncateRow(float *dst, const float *src, std::size_t n)
{
    forEachVector<T>(n, [&](std::size_t j, auto lanes) {
        T::store(dst + j, lanes, truncate<T>(T::load(src + j, lanes)));
    });
}

/** The SIMD unit's scalar-operand rows: acc[j] =
 *  quantizeBf16(Op(truncateBf16(acc[j]), q)), Op being T::mul or T::add. */
template <class T, auto Op>
void
simdScalarRow(float *acc, float q, std::size_t n)
{
    const typename T::Vec qv = T::broadcast(q);
    forEachVector<T>(n, [&](std::size_t j, auto lanes) {
        const typename T::Vec x = truncate<T>(T::load(acc + j, lanes));
        T::store(acc + j, lanes, quantRoundtrip<T>(Op(x, qv)));
    });
}

/** The vector-operand rows: acc[j] =
 *  quantizeBf16(Op(truncateBf16(acc[j]), quantizeBf16(v[j]))). */
template <class T, auto Op>
void
simdVectorRow(float *acc, const float *v, std::size_t n)
{
    forEachVector<T>(n, [&](std::size_t j, auto lanes) {
        const typename T::Vec x = truncate<T>(T::load(acc + j, lanes));
        const typename T::Vec qv = quantRoundtrip<T>(T::load(v + j, lanes));
        T::store(acc + j, lanes, quantRoundtrip<T>(Op(x, qv)));
    });
}

template <class T>
void
scaleQuantizeRow(float *v, float s, std::size_t n)
{
    const typename T::Vec sv = T::broadcast(s);
    forEachVector<T>(n, [&](std::size_t j, auto lanes) {
        const typename T::Vec y = T::mul(T::load(v + j, lanes), sv);
        T::store(v + j, lanes, quantRoundtrip<T>(y));
    });
}

template <class T>
void
lutRow(float *acc, const std::uint32_t *table, std::size_t n)
{
    forEachVector<T>(n, [&](std::size_t j, auto lanes) {
        const typename T::Bits idx =
            T::shr16(T::bits(T::load(acc + j, lanes)));
        T::store(acc + j, lanes, T::floats(T::gather(table, idx, lanes)));
    });
}

// --- the exact-product gate (kFusedMac tiers) ------------------------

/**
 * True when every product of an entry under `a` with an entry under
 * `b` is exact in fp32, so the fused MAC fma(a, b, c) equals the
 * reference's c + a * b bit for bit for any accumulator c (+-Inf, NaN
 * and -0 included) and under any FTZ/DAZ setting. Normal bf16 values
 * carry 8 significant bits, so a product carries at most 16 and is
 * exact whenever it is an fp32 normal. With biased exponents ea, eb,
 * |a * b| lies in [2^(ea+eb-254), 2^(ea+eb-252)): ea + eb >= 128 keeps
 * it at or above 2^-126 (no subnormal, no underflow, nothing for FTZ to
 * flush) and ea + eb <= 380 keeps it below 2^128 (no overflow). Zero
 * products are exact and their sign follows the same rule in both
 * forms. Subnormal (lo 0), Inf and NaN (hi 255) entries, which DAZ,
 * rounding or invalid-operation rules could treat differently,
 * disqualify the pair.
 */
inline bool
productsExact(const ExpRange &a, const ExpRange &b)
{
    return a.lo != 0 && b.lo != 0 && a.hi != 255 && b.hi != 255 &&
           a.lo + b.lo >= 128 && a.hi + b.hi <= 380;
}

/** Widens bf16 rows like widenRow while folding all their entries into
 *  one exponent envelope, kept in vector registers until range(). */
template <class T>
class WidenScan
{
  public:
    void
    row(float *dst, const std::uint16_t *src, std::size_t n)
    {
        forEachVector<T>(n, [&](std::size_t j, auto lanes) {
            const typename T::Vec w = T::widen(src + j, lanes);
            T::store(dst + j, lanes, w);
            // Dead lanes widen to +0: zeros leave lo at 255 through the
            // select and hi unchanged (their exponent is 0).
            const typename T::Bits mag =
                T::bitAnd(T::bits(w), T::splat(0x7fffffffu));
            const typename T::Bits e = T::shr23(mag);
            lo_ = T::min32(lo_, T::selectGt(mag, T::splat(0), T::splat(255),
                                            e));
            hi_ = T::max32(hi_, e);
        });
    }

    ExpRange
    range() const
    {
        return { T::reduceMin32(lo_), T::reduceMax32(hi_) };
    }

  private:
    typename T::Bits lo_ = T::splat(255);
    typename T::Bits hi_ = T::splat(0);
};

// --- the GEMM core ---------------------------------------------------

/** Every (row, column-vector) cell of the largest block shape; OP is
 *  applied to the literal pair so each accumulator is a distinct named
 *  local (see gemmRowBlock for why it cannot be an array). */
#define PROSE_GEMM_CELLS(OP)                                            \
    OP(0, 0) OP(0, 1) OP(0, 2) OP(0, 3)                                 \
    OP(1, 0) OP(1, 1) OP(1, 2) OP(1, 3)                                 \
    OP(2, 0) OP(2, 1) OP(2, 2) OP(2, 3)                                 \
    OP(3, 0) OP(3, 1) OP(3, 2) OP(3, 3)                                 \
    OP(4, 0) OP(4, 1) OP(4, 2) OP(4, 3)                                 \
    OP(5, 0) OP(5, 1) OP(5, 2) OP(5, 3)

#define PROSE_GEMM_COLS(OP) OP(0) OP(1) OP(2) OP(3)

/** Lanes of column vector V of an NV-vector block: all of them, except
 *  in the last vector, which may be partial (`last`, a T::Tail or a
 *  Tail8). */
template <int V, int NV, class Tail>
inline auto
columnLanes(const Tail &last)
{
    if constexpr (V + 1 < NV)
        return Full{};
    else
        return last;
}

/**
 * One R-row x NV-vector block of the fp32 GEMM core, both extents known
 * at compile time so the loops fully unroll. The accumulators are
 * macro-expanded NAMED locals, not a local Vec[R][NV] array: GCC never
 * fully scalarizes the array (even under a raised
 * --param=sra-max-scalarization-size-Ospeed), so it kept the array's
 * stack home live and re-stored every accumulator on every k iteration
 * — 12+ dead 64-byte stores per iteration saturating the single
 * 512-bit store port, ~2.3x slower than the named form. With named
 * locals the dead cells (guarded out by `if constexpr`) vanish and the
 * live ones provably stay in registers across the whole k loop. The A
 * broadcasts come straight from memory (vbroadcastss, no shuffle).
 * Each accumulator lane sees its fp32 ops in exactly the scalar
 * ascending-k order; only the last column vector is partial, and its
 * dead lanes are neither read nor written. `Fused` issues one fmadd per
 * MAC instead of a mul + add pair; callers only set it where
 * productsExact() holds, so the bits do not change.
 */
template <class T, int R, int NV, bool Fused>
inline void
gemmRowBlock(float *cj, std::size_t accStride, const float *a,
             std::size_t aStride, const float *bj, std::size_t bStride,
             std::size_t depth, typename T::Tail last)
{
    static_assert(R <= 6 && NV <= 4, "block larger than PROSE_GEMM_CELLS");
    using Vec = typename T::Vec;
#define PROSE_GEMM_DECL(r, v)                                           \
    Vec c##r##v = T::zero();                                            \
    (void)c##r##v;
    PROSE_GEMM_CELLS(PROSE_GEMM_DECL)
#undef PROSE_GEMM_DECL
#define PROSE_GEMM_LOAD(r, v)                                           \
    if constexpr (r < R && v < NV)                                      \
        c##r##v = T::load(cj + r * accStride + v * T::kLanes,           \
                          columnLanes<v, NV>(last));
    PROSE_GEMM_CELLS(PROSE_GEMM_LOAD)
#undef PROSE_GEMM_LOAD
    for (std::size_t k = 0; k < depth; ++k) {
        const float *brow = bj + k * bStride;
#define PROSE_GEMM_BLOAD(v)                                             \
        Vec b##v = T::zero();                                           \
        (void)b##v;                                                     \
        if constexpr (v < NV)                                           \
            b##v = T::load(brow + v * T::kLanes,                        \
                           columnLanes<v, NV>(last));
        PROSE_GEMM_COLS(PROSE_GEMM_BLOAD)
#undef PROSE_GEMM_BLOAD
#define PROSE_GEMM_MAC(r, v)                                            \
        if constexpr (r < R && v < NV) {                                \
            const Vec av = T::broadcast(a[r * aStride + k]);            \
            if constexpr (Fused)                                        \
                c##r##v = T::fmadd(av, b##v, c##r##v);                  \
            else                                                        \
                c##r##v = T::add(c##r##v, T::mul(av, b##v));            \
        }
        PROSE_GEMM_CELLS(PROSE_GEMM_MAC)
#undef PROSE_GEMM_MAC
    }
#define PROSE_GEMM_STORE(r, v)                                          \
    if constexpr (r < R && v < NV)                                      \
        T::store(cj + r * accStride + v * T::kLanes,                    \
                 columnLanes<v, NV>(last), c##r##v);
    PROSE_GEMM_CELLS(PROSE_GEMM_STORE)
#undef PROSE_GEMM_STORE
}

#undef PROSE_GEMM_CELLS
#undef PROSE_GEMM_COLS

/** gemmRowBlock<T, rows, nvec, Fused>(args...) for runtime extents
 *  rows in [1, R] and nvec in [1, NV]. */
template <class T, int R, int NV, bool Fused, class... Args>
inline void
gemmBlock(std::size_t rows, std::size_t nvec, Args... args)
{
    if constexpr (R > 1) {
        if (rows < R)
            return gemmBlock<T, R - 1, NV, Fused>(rows, nvec, args...);
    }
    if constexpr (NV > 1) {
        if (nvec < NV)
            return gemmBlock<T, R, NV - 1, Fused>(rows, nvec, args...);
    }
    gemmRowBlock<T, R, NV, Fused>(args...);
}

/** The fp32 GEMM core: gemmTileF32 itself, and the bf16 tile after
 *  exact operand widening into scratch. Full kRowBlock-row groups take
 *  the widest block; the final remainder rows get their own
 *  register-blocked instantiation instead of a row-at-a-time path,
 *  which matters for the 16-row E-array tiles. */
template <class T, bool Fused>
void
gemmRows(float *acc, std::size_t accStride, const float *a,
         std::size_t aStride, const float *b, std::size_t bStride,
         std::size_t rows, std::size_t cols, std::size_t depth)
{
    constexpr std::size_t kRows = T::kRowBlock;
    constexpr std::size_t kBlockCols = T::kMaxVecs * T::kLanes;
    for (std::size_t jb = 0; jb < cols; jb += kBlockCols) {
        const std::size_t live = minSize(kBlockCols, cols - jb);
        const std::size_t nvec = (live + T::kLanes - 1) / T::kLanes;
        const typename T::Tail last =
            T::tail(live - (nvec - 1) * T::kLanes);
        for (std::size_t i = 0; i < rows; i += kRows)
            gemmBlock<T, T::kRowBlock, T::kMaxVecs, Fused>(
                minSize(kRows, rows - i), nvec, acc + i * accStride + jb,
                accStride, a + i * aStride, aStride, b + jb, bStride,
                depth, last);
    }
}

// --- the bf16 front end ----------------------------------------------

/**
 * Prefetch toward L2 the chunk after chunk `jb` of a packed
 * gemmTileBf16 panel (layout in KernelSet), so it streams in while
 * chunk `jb` computes. Only addresses inside the panel are formed; the
 * last chunk prefetches nothing.
 */
inline void
prefetchNextBf16Chunk(const std::uint16_t *b, std::size_t jb,
                      std::size_t cols, std::size_t depth)
{
    const std::size_t next = jb + kBf16ChunkCols;
    if (next >= cols)
        return;
    const std::size_t bytes =
        depth * minSize(kBf16ChunkCols, cols - next) * sizeof(*b);
    const char *chunk = reinterpret_cast<const char *>(b + next * depth);
    for (std::size_t off = 0; off < bytes; off += 64)
        _mm_prefetch(chunk + off, _MM_HINT_T1);
}

/**
 * Widen both operands to fp32 scratch once, then run the fp32 core.
 * Widening is exact (bits << 16), so the arithmetic — and each
 * accumulator's ascending-k op order — is identical to widening inline;
 * hoisting it out of the row blocks removes the per-block repeat of the
 * conversion work. B is packed (layout in KernelSet): each chunk is a
 * contiguous depth x live block, widened in one sequential run while
 * the next chunk is prefetched. The library's callers pass 128-deep
 * panels, so a widened 64-column chunk (32 KiB) stays L1-resident
 * across the core's per-row-group re-reads.
 *
 * On a kFusedMac tier the same passes fold each operand's exponent
 * envelope: one per kRowBlock-row block of A (the core's row groups)
 * and one per B chunk. Each maximal run of row blocks sharing one
 * productsExact verdict goes to the core in one call, so its row
 * grouping is the same as for a single unfused call.
 */
template <class T>
void
gemmTileBf16(float *acc, std::size_t accStride, const std::uint16_t *a,
             std::size_t aStride, const std::uint16_t *b, std::size_t rows,
             std::size_t cols, std::size_t depth)
{
    constexpr std::size_t kRows = T::kRowBlock;
    const std::size_t blocks = (rows + kRows - 1) / kRows;
    const TileScratch s =
        tileScratch(rows * depth, depth * minSize(kBf16ChunkCols, cols),
                    T::kFusedMac ? blocks : 0);
    if constexpr (T::kFusedMac) {
        for (std::size_t g = 0; g < blocks; ++g) {
            WidenScan<T> scan;
            const std::size_t i_end = minSize(rows, (g + 1) * kRows);
            for (std::size_t i = g * kRows; i < i_end; ++i)
                scan.row(s.a + i * depth, a + i * aStride, depth);
            s.aRanges[g] = scan.range();
        }
    } else {
        for (std::size_t i = 0; i < rows; ++i)
            widenRow<T>(s.a + i * depth, a + i * aStride, depth);
    }
    for (std::size_t jb = 0; jb < cols; jb += kBf16ChunkCols) {
        const std::size_t live = minSize(kBf16ChunkCols, cols - jb);
        const std::uint16_t *chunk = b + jb * depth;
        if constexpr (T::kFusedMac) {
            WidenScan<T> scan;
            scan.row(s.b, chunk, depth * live);
            const ExpRange b_range = scan.range();
            prefetchNextBf16Chunk(b, jb, cols, depth);
            for (std::size_t g = 0; g < blocks;) {
                const bool fused = productsExact(s.aRanges[g], b_range);
                std::size_t g_end = g + 1;
                while (g_end < blocks &&
                       productsExact(s.aRanges[g_end], b_range) == fused)
                    ++g_end;
                const std::size_t i0 = g * kRows;
                const std::size_t i1 = minSize(rows, g_end * kRows);
                const auto core = fused ? gemmRows<T, true>
                                        : gemmRows<T, false>;
                core(acc + i0 * accStride + jb, accStride,
                     s.a + i0 * depth, depth, s.b, live, i1 - i0, live,
                     depth);
                g = g_end;
            }
        } else {
            widenRow<T>(s.b, chunk, depth * live);
            prefetchNextBf16Chunk(b, jb, cols, depth);
            gemmRows<T, false>(acc + jb, accStride, s.a, depth, s.b, live,
                               rows, live, depth);
        }
    }
}

// --- the ABFT f64 reductions -----------------------------------------
// Both SIMD tiers have AVX2, so the fp32 side of these kernels is
// 8-float ymm code shared by the tiers; T supplies only VecD, eight
// double lanes (one zmm, or two ymm halves), and its ops. Every output
// is one lane that sums its terms in ascending order from +0.0 with
// the scalar reference's operations: the widening is exact, and a
// weighted term is one rounded multiply before its add.

/** The first `live` lanes of an 8-float group (1 <= live <= 8). */
struct Tail8
{
    __m256i mask; ///< all-ones in the live lanes
    std::size_t live;
};

inline Tail8
tail8(std::size_t live)
{
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    return { _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live)),
                                lane),
             live };
}

inline __m256
load8(const float *p, Full)
{
    return _mm256_loadu_ps(p);
}

/** Dead lanes read as +0 and touch no memory. */
inline __m256
load8(const float *p, const Tail8 &t)
{
    return _mm256_maskload_ps(p, t.mask);
}

inline std::size_t
liveOf(Full)
{
    return 8;
}

inline std::size_t
liveOf(const Tail8 &t)
{
    return t.live;
}

/** r0..r7 (rows of an 8 x 8 block) become its columns, in place. */
inline void
transpose8x8(__m256 &r0, __m256 &r1, __m256 &r2, __m256 &r3, __m256 &r4,
             __m256 &r5, __m256 &r6, __m256 &r7)
{
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
    const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xee);
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
    const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xee);
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
    const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xee);
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
    const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xee);
    r0 = _mm256_permute2f128_ps(u0, u4, 0x20);
    r1 = _mm256_permute2f128_ps(u1, u5, 0x20);
    r2 = _mm256_permute2f128_ps(u2, u6, 0x20);
    r3 = _mm256_permute2f128_ps(u3, u7, 0x20);
    r4 = _mm256_permute2f128_ps(u0, u4, 0x31);
    r5 = _mm256_permute2f128_ps(u1, u5, 0x31);
    r6 = _mm256_permute2f128_ps(u2, u6, 0x31);
    r7 = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/** sum += w[i] * x and absSum += absW[i] * |x| (unit weights unless
 *  Weighted; absSum untouched unless Abs), x the widened group. */
template <class T, bool Weighted, bool Abs>
inline void
sumTerm(typename T::VecD &sum, typename T::VecD &absSum, __m256 group,
        const double *w, const double *absW, std::size_t i)
{
    const typename T::VecD x = T::widenD(group);
    if constexpr (Weighted)
        sum = T::addD(sum, T::mulD(T::broadcastD(w[i]), x));
    else
        sum = T::addD(sum, x);
    if constexpr (Abs) {
        if constexpr (Weighted)
            absSum = T::addD(absSum,
                             T::mulD(T::broadcastD(absW[i]), T::absD(x)));
        else
            absSum = T::addD(absSum, T::absD(x));
    }
}

#define PROSE_SUM_GROUPS(OP) OP(0) OP(1) OP(2) OP(3)

/** columnSumsF64 over one block of NV eight-column groups; the sums of
 *  every group stay in named registers across the whole row sweep. */
template <class T, int NV, bool Weighted, bool Abs>
inline void
columnSumsBlock(double *sum, double *absSum, const float *x,
                std::size_t xStride, std::size_t rows, const double *w,
                const double *absW, const Tail8 &last)
{
    static_assert(NV <= 4, "block larger than PROSE_SUM_GROUPS");
    using VecD = typename T::VecD;
#define PROSE_SUM_DECL(v)                                               \
    VecD s##v = T::zeroD();                                             \
    VecD a##v = T::zeroD();                                             \
    (void)s##v;                                                         \
    (void)a##v;
    PROSE_SUM_GROUPS(PROSE_SUM_DECL)
#undef PROSE_SUM_DECL
    for (std::size_t i = 0; i < rows; ++i) {
        const float *row = x + i * xStride;
#define PROSE_SUM_ROW(v)                                                \
        if constexpr (v < NV)                                           \
            sumTerm<T, Weighted, Abs>(                                  \
                s##v, a##v,                                             \
                load8(row + 8 * v, columnLanes<v, NV>(last)), w, absW,  \
                i);
        PROSE_SUM_GROUPS(PROSE_SUM_ROW)
#undef PROSE_SUM_ROW
    }
#define PROSE_SUM_STORE(v)                                              \
    if constexpr (v < NV) {                                             \
        const std::size_t live = liveOf(columnLanes<v, NV>(last));      \
        T::storeD(sum + 8 * v, live, s##v);                             \
        if constexpr (Abs)                                              \
            T::storeD(absSum + 8 * v, live, a##v);                      \
    }
    PROSE_SUM_GROUPS(PROSE_SUM_STORE)
#undef PROSE_SUM_STORE
}

#undef PROSE_SUM_GROUPS

/** columnSumsBlock<T, ngroups, ...> for a runtime ngroups in [1, NV]. */
template <class T, int NV, bool Weighted, bool Abs, class... Args>
inline void
columnSumsGroups(std::size_t ngroups, Args... args)
{
    if constexpr (NV > 1) {
        if (ngroups < NV)
            return columnSumsGroups<T, NV - 1, Weighted, Abs>(ngroups,
                                                              args...);
    }
    columnSumsBlock<T, NV, Weighted, Abs>(args...);
}

template <class T, bool Weighted, bool Abs>
void
columnSumsImpl(double *sum, double *absSum, const float *x,
               std::size_t xStride, std::size_t rows, std::size_t cols,
               const double *w, const double *absW)
{
    constexpr std::size_t kBlockCols =
        8 * static_cast<std::size_t>(T::kSumGroups);
    for (std::size_t cb = 0; cb < cols; cb += kBlockCols) {
        const std::size_t live = minSize(kBlockCols, cols - cb);
        const std::size_t ngroups = (live + 7) / 8;
        columnSumsGroups<T, T::kSumGroups, Weighted, Abs>(
            ngroups, sum + cb, Abs ? absSum + cb : nullptr, x + cb,
            xStride, rows, w, absW, tail8(live - (ngroups - 1) * 8));
    }
}

/** rowSumsF64 over rows [0, liveRows) of one eight-row block (liveRows
 *  in [1, 8]): each 8 x 8 block of the plane is transposed in registers,
 *  so column c + j reaches every row's lane in one vector. Dead rows
 *  re-read row 0 and are never stored. */
template <class T, bool Weighted, bool Abs>
inline void
rowSumsBlock(double *sum, double *absSum, const float *x,
             std::size_t xStride, std::size_t liveRows, std::size_t cols,
             const double *w, const double *absW)
{
    const float *p[8];
    for (std::size_t r = 0; r < 8; ++r)
        p[r] = x + (r < liveRows ? r : 0) * xStride;
    typename T::VecD s = T::zeroD(), a = T::zeroD();
    auto sweep = [&](std::size_t c, auto lanes) {
        __m256 g0 = load8(p[0] + c, lanes), g1 = load8(p[1] + c, lanes),
               g2 = load8(p[2] + c, lanes), g3 = load8(p[3] + c, lanes),
               g4 = load8(p[4] + c, lanes), g5 = load8(p[5] + c, lanes),
               g6 = load8(p[6] + c, lanes), g7 = load8(p[7] + c, lanes);
        transpose8x8(g0, g1, g2, g3, g4, g5, g6, g7);
        // Named columns, not an array: a runtime-indexed array would
        // live on the stack. For a Full group every test folds away.
        const std::size_t live = liveOf(lanes);
        sumTerm<T, Weighted, Abs>(s, a, g0, w, absW, c);
#define PROSE_SUM_COLUMN(j, g)                                          \
        if (live > j)                                                   \
            sumTerm<T, Weighted, Abs>(s, a, g, w, absW, c + j);
        PROSE_SUM_COLUMN(1, g1)
        PROSE_SUM_COLUMN(2, g2)
        PROSE_SUM_COLUMN(3, g3)
        PROSE_SUM_COLUMN(4, g4)
        PROSE_SUM_COLUMN(5, g5)
        PROSE_SUM_COLUMN(6, g6)
        PROSE_SUM_COLUMN(7, g7)
#undef PROSE_SUM_COLUMN
    };
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8)
        sweep(c, Full{});
    if (c < cols)
        sweep(c, tail8(cols - c));
    T::storeD(sum, liveRows, s);
    if constexpr (Abs)
        T::storeD(absSum, liveRows, a);
}

template <class T, bool Weighted, bool Abs>
void
rowSumsImpl(double *sum, double *absSum, const float *x,
            std::size_t xStride, std::size_t rows, std::size_t cols,
            const double *w, const double *absW)
{
    for (std::size_t r = 0; r < rows; r += 8)
        rowSumsBlock<T, Weighted, Abs>(sum + r,
                                       Abs ? absSum + r : nullptr,
                                       x + r * xStride, xStride,
                                       minSize(8, rows - r), cols, w,
                                       absW);
}

using SumsF64 = void (*)(double *, double *, const float *, std::size_t,
                        std::size_t, std::size_t, const double *,
                        const double *);

/** The variant of a reduction for the optional inputs given: weighted
 *  when w is, with absolute sums when absSum is. */
inline SumsF64
pickSums(const double *w, const double *absSum, SumsF64 plain,
         SumsF64 withAbs, SumsF64 weighted, SumsF64 weightedWithAbs)
{
    if (w)
        return absSum ? weightedWithAbs : weighted;
    return absSum ? withAbs : plain;
}

template <class T>
void
columnSumsF64(double *sum, double *absSum, const float *x,
              std::size_t xStride, std::size_t rows, std::size_t cols,
              const double *w, const double *absW)
{
    pickSums(w, absSum, columnSumsImpl<T, false, false>,
             columnSumsImpl<T, false, true>, columnSumsImpl<T, true, false>,
             columnSumsImpl<T, true, true>)(sum, absSum, x, xStride, rows,
                                            cols, w, absW);
}

template <class T>
void
rowSumsF64(double *sum, double *absSum, const float *x,
           std::size_t xStride, std::size_t rows, std::size_t cols,
           const double *w, const double *absW)
{
    pickSums(w, absSum, rowSumsImpl<T, false, false>,
             rowSumsImpl<T, false, true>, rowSumsImpl<T, true, false>,
             rowSumsImpl<T, true, true>)(sum, absSum, x, xStride, rows,
                                         cols, w, absW);
}

/** The tier's KernelSet: every entry is this body instantiated for T. */
template <class T>
constexpr KernelSet
kernelSet(const char *name)
{
    return {
        name,
        gemmTileBf16<T>,
        gemmRows<T, false>,
        quantizeBitsRow<T>,
        widenRow<T>,
        quantizeRoundtripRow<T>,
        truncateRow<T>,
        simdScalarRow<T, T::mul>,
        simdScalarRow<T, T::add>,
        simdVectorRow<T, T::mul>,
        simdVectorRow<T, T::add>,
        scaleQuantizeRow<T>,
        lutRow<T>,
        columnSumsF64<T>,
        rowSumsF64<T>,
    };
}

} // namespace

} // namespace prose::kernels

#endif // PROSE_NUMERICS_KERNELS_KERNEL_BODY_HH
