/**
 * @file
 * AVX-512 kernel tier (F+BW+DQ+VL). Compiled with its own -m flags and
 * -ffp-contract=off, so the compiler never fuses a multiply and an add
 * on its own. The one fused MAC is explicit: the bf16 GEMM tile issues
 * _mm512_fmadd_ps only for (row block x B chunk) pairs whose every
 * product is provably an exact fp32 normal, where fma(a, b, c) and
 * c + a * b are the same number (see productsExact). Every other MAC
 * rounds the product and the sum separately, as the scalar reference
 * does.
 *
 * The bf16 tile reads B pre-packed in its consumption order (layout in
 * KernelSet::gemmTileBf16): each 64-column chunk is one contiguous
 * depth x live block, widened in one sequential pass while the next
 * chunk is prefetched toward L2.
 *
 * Everything is masked, so there are no scalar tails: a row of any
 * length runs the same vector code path with a partial mask on the last
 * chunk (masked loads/stores fault-suppress the dead lanes). The bf16
 * conversions are the same integer RNE emulation as the scalar
 * reference, 16 lanes wide.
 */

#include "kernel_tiers.hh"

#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "numerics/bfloat16.hh"

// GCC PR105593: _mm512_srli_epi32's merge-source is the "undefined"
// self-init idiom (__m512i __Y = __Y) and trips -Wmaybe-uninitialized
// when inlined at -O3, although every lane is overwritten under an
// all-ones mask. Header-level suppression for this TU only.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace prose::kernels {

namespace {

inline float
widenBits(std::uint16_t bits)
{
    return Bfloat16::fromBits(bits).toFloat();
}

/** Mask with the low `live` of 16 lanes set (live <= 16). */
inline __mmask16
headMask(std::size_t live)
{
    return static_cast<__mmask16>((1u << live) - 1u);
}

inline __m512i
hiMask()
{
    return _mm512_set1_epi32(static_cast<std::int32_t>(0xffff0000u));
}

/** Lanes holding NaNs. */
inline __mmask16
nanLanes(__m512i bits)
{
    return _mm512_cmpgt_epi32_mask(
        _mm512_and_si512(bits, _mm512_set1_epi32(0x7fffffff)),
        _mm512_set1_epi32(0x7f800000));
}

/** `bits + 0x7fff + ((bits >> 16) & 1)` — the RNE bias add. */
inline __m512i
rneRounded(__m512i bits)
{
    const __m512i lsb = _mm512_and_si512(_mm512_srli_epi32(bits, 16),
                                         _mm512_set1_epi32(1));
    return _mm512_add_epi32(
        bits, _mm512_add_epi32(lsb, _mm512_set1_epi32(0x7fff)));
}

/** quantizeBf16 round trip on fp32 bits, 16 lanes. */
inline __m512i
quantRoundtripBits(__m512i bits)
{
    const __m512i normal = _mm512_and_si512(rneRounded(bits), hiMask());
    const __m512i nan =
        _mm512_or_si512(_mm512_and_si512(bits, hiMask()),
                        _mm512_set1_epi32(0x00400000));
    return _mm512_mask_mov_epi32(normal, nanLanes(bits), nan);
}

inline __m512
quantRoundtrip(__m512 v)
{
    return _mm512_castsi512_ps(
        quantRoundtripBits(_mm512_castps_si512(v)));
}

/** fp32 -> bf16 bit pattern in the low 16 bits of each epi32 lane. */
inline __m512i
quantBits16(__m512i bits)
{
    const __m512i normal = _mm512_srli_epi32(rneRounded(bits), 16);
    const __m512i nan = _mm512_or_si512(_mm512_srli_epi32(bits, 16),
                                        _mm512_set1_epi32(0x0040));
    return _mm512_mask_mov_epi32(normal, nanLanes(bits), nan);
}

/** Widen 16 (masked) bf16 bit patterns to fp32; dead lanes are 0. */
inline __m512
widen16(const std::uint16_t *src, __mmask16 m)
{
    const __m256i raw = _mm256_maskz_loadu_epi16(
        m, reinterpret_cast<const __m256i *>(src));
    return _mm512_castsi512_ps(
        _mm512_slli_epi32(_mm512_cvtepu16_epi32(raw), 16));
}

inline __m512
truncate16(__m512 v)
{
    return _mm512_castsi512_ps(
        _mm512_and_si512(_mm512_castps_si512(v), hiMask()));
}

/** Rows per register block of the GEMM core (the widest R below). */
constexpr std::size_t kRowBlock = 6;

/**
 * Exponent envelope of a set of bf16 entries: the min and max biased
 * exponent over the nonzero ones, and whether any is Inf, NaN or
 * subnormal. The neutral values (lo 255, hi 0) stand for "no nonzero
 * entry", which leaves every product with it an exact zero.
 */
struct ExpRange
{
    int lo = 255;
    int hi = 0;
    bool special = false;
};

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
 * forms. Subnormal, Inf and NaN entries (which DAZ, rounding or
 * invalid-operation rules could treat differently) disqualify the pair.
 */
inline bool
productsExact(const ExpRange &a, const ExpRange &b)
{
    return !a.special && !b.special && a.lo + b.lo >= 128 &&
           a.hi + b.hi <= 380;
}

/** Widens bf16 rows like widenRow while folding all their entries into
 *  one exponent envelope, kept in vector registers until range(). */
class WidenScan
{
  public:
    void
    row(float *dst, const std::uint16_t *src, std::size_t n)
    {
        for (std::size_t j = 0; j < n; j += 16) {
            const __mmask16 m =
                headMask(std::min<std::size_t>(16, n - j));
            const __m512 w = widen16(src + j, m);
            _mm512_mask_storeu_ps(dst + j, m, w);
            // Dead lanes widen to +0, so they never count as nonzero.
            const __m512i mag = _mm512_and_si512(
                _mm512_castps_si512(w), _mm512_set1_epi32(0x7fffffff));
            const __m512i e = _mm512_srli_epi32(mag, 23);
            const __mmask16 nonzero = _mm512_test_epi32_mask(mag, mag);
            special_ |= static_cast<__mmask16>(
                _mm512_mask_cmpeq_epi32_mask(nonzero, e,
                                             _mm512_setzero_si512()) |
                _mm512_cmpeq_epi32_mask(e, _mm512_set1_epi32(255)));
            lo_ = _mm512_mask_min_epi32(lo_, nonzero, lo_, e);
            hi_ = _mm512_mask_max_epi32(hi_, nonzero, hi_, e);
        }
    }

    ExpRange
    range() const
    {
        ExpRange r;
        r.lo = _mm512_reduce_min_epi32(lo_);
        r.hi = _mm512_reduce_max_epi32(hi_);
        r.special = special_ != 0;
        return r;
    }

  private:
    __m512i lo_ = _mm512_set1_epi32(255);
    __m512i hi_ = _mm512_setzero_si512();
    __mmask16 special_ = 0;
};

/** Every (row, column-vector) cell of the largest block shape; OP is
 *  applied to the literal pair so each accumulator is a distinct named
 *  local (see gemmRowBlockF32Avx512 for why it cannot be an array). */
#define PROSE_GEMM_CELLS(OP)                                            \
    OP(0, 0) OP(0, 1) OP(0, 2) OP(0, 3)                                 \
    OP(1, 0) OP(1, 1) OP(1, 2) OP(1, 3)                                 \
    OP(2, 0) OP(2, 1) OP(2, 2) OP(2, 3)                                 \
    OP(3, 0) OP(3, 1) OP(3, 2) OP(3, 3)                                 \
    OP(4, 0) OP(4, 1) OP(4, 2) OP(4, 3)                                 \
    OP(5, 0) OP(5, 1) OP(5, 2) OP(5, 3)

#define PROSE_GEMM_COLS(OP) OP(0) OP(1) OP(2) OP(3)

/**
 * One R-row x (NV * 16)-column block of the fp32 GEMM core, both
 * extents known at compile time so the loops fully unroll. The
 * accumulators are macro-expanded NAMED locals, not a local
 * __m512[R][NV] array: GCC never fully scalarizes the array (even
 * under a raised --param=sra-max-scalarization-size-Ospeed), so it
 * kept the array's stack home live and re-stored every accumulator on
 * every k iteration — 12+ dead 64-byte stores per iteration
 * saturating the single 512-bit store port, ~2.3x slower than the
 * named form. With named locals the dead cells (guarded out by
 * `if constexpr`) vanish and the live ones provably stay in
 * registers across the whole k loop. The A broadcasts come straight
 * from memory (vbroadcastss, no port-5 shuffle); the largest shape,
 * R = 6 x NV = 4, uses 24 accumulator + 4 B + 1 broadcast registers
 * of the 32-register file. Each accumulator lane sees its fp32 ops in
 * exactly the scalar ascending-k order; dead lanes of the last chunk
 * accumulate garbage that the masked store discards. `Fused` issues
 * one vfmadd per MAC instead of a vmulps + vaddps pair; callers only
 * set it where productsExact() holds, so the bits do not change.
 */
template <int R, int NV, bool Fused>
inline void
gemmRowBlockF32Avx512(float *cj, std::size_t accStride,
                      const float *a, std::size_t aStride,
                      const float *bj, std::size_t bStride,
                      std::size_t depth, const __mmask16 *masks)
{
#define PROSE_GEMM_DECL(r, v)                                           \
    __m512 c##r##v = _mm512_setzero_ps();                               \
    (void)c##r##v;
    PROSE_GEMM_CELLS(PROSE_GEMM_DECL)
#undef PROSE_GEMM_DECL
#define PROSE_GEMM_LOAD(r, v)                                           \
    if constexpr (r < R && v < NV)                                      \
        c##r##v = _mm512_maskz_loadu_ps(masks[v],                       \
                                        cj + r * accStride + v * 16);
    PROSE_GEMM_CELLS(PROSE_GEMM_LOAD)
#undef PROSE_GEMM_LOAD
    for (std::size_t k = 0; k < depth; ++k) {
        const float *brow = bj + k * bStride;
#define PROSE_GEMM_BLOAD(v)                                             \
        __m512 b##v = _mm512_setzero_ps();                              \
        (void)b##v;                                                     \
        if constexpr (v < NV)                                           \
            b##v = _mm512_maskz_loadu_ps(masks[v], brow + v * 16);
        PROSE_GEMM_COLS(PROSE_GEMM_BLOAD)
#undef PROSE_GEMM_BLOAD
#define PROSE_GEMM_MAC(r, v)                                            \
        if constexpr (r < R && v < NV) {                                \
            const __m512 av = _mm512_set1_ps(a[r * aStride + k]);       \
            if constexpr (Fused)                                        \
                c##r##v = _mm512_fmadd_ps(av, b##v, c##r##v);           \
            else                                                        \
                c##r##v = _mm512_add_ps(c##r##v,                        \
                                        _mm512_mul_ps(av, b##v));       \
        }
        PROSE_GEMM_CELLS(PROSE_GEMM_MAC)
#undef PROSE_GEMM_MAC
    }
#define PROSE_GEMM_STORE(r, v)                                          \
    if constexpr (r < R && v < NV)                                      \
        _mm512_mask_storeu_ps(cj + r * accStride + v * 16, masks[v],    \
                              c##r##v);
    PROSE_GEMM_CELLS(PROSE_GEMM_STORE)
#undef PROSE_GEMM_STORE
}

#undef PROSE_GEMM_CELLS
#undef PROSE_GEMM_COLS

/** Dispatch the compile-time column count for an R-row block. */
template <int R, bool Fused>
inline void
gemmRowBlockDispatchF32Avx512(float *cj, std::size_t accStride,
                              const float *a, std::size_t aStride,
                              const float *bj, std::size_t bStride,
                              std::size_t depth, std::size_t nvec,
                              const __mmask16 *masks)
{
    switch (nvec) {
      case 1:
        gemmRowBlockF32Avx512<R, 1, Fused>(cj, accStride, a, aStride,
                                           bj, bStride, depth, masks);
        break;
      case 2:
        gemmRowBlockF32Avx512<R, 2, Fused>(cj, accStride, a, aStride,
                                           bj, bStride, depth, masks);
        break;
      case 3:
        gemmRowBlockF32Avx512<R, 3, Fused>(cj, accStride, a, aStride,
                                           bj, bStride, depth, masks);
        break;
      default:
        gemmRowBlockF32Avx512<R, 4, Fused>(cj, accStride, a, aStride,
                                           bj, bStride, depth, masks);
        break;
    }
}

/** The shared fp32 GEMM core behind both tile kernels (the bf16 tier
 *  funnels here after exact operand widening into scratch). Full
 *  6-row groups take the widest block; the final 1..5-row remainder
 *  gets its own register-blocked instantiation instead of a slow
 *  row-at-a-time path, which matters for the 16-row E-array tiles.
 *  `Fused` selects the fused MAC for every block (see
 *  gemmRowBlockF32Avx512). */
template <bool Fused>
inline void
gemmRowsF32Avx512(float *acc, std::size_t accStride, const float *a,
                  std::size_t aStride, const float *b,
                  std::size_t bStride, std::size_t rows,
                  std::size_t cols, std::size_t depth)
{
    for (std::size_t jb = 0; jb < cols; jb += 64) {
        const std::size_t live = std::min<std::size_t>(64, cols - jb);
        const std::size_t nvec = (live + 15) / 16;
        __mmask16 masks[4] = { 0, 0, 0, 0 };
        for (std::size_t v = 0; v < nvec; ++v)
            masks[v] = headMask(std::min<std::size_t>(16, live - v * 16));

        const float *bj = b + jb;
        std::size_t i = 0;
        for (; i + kRowBlock <= rows; i += kRowBlock)
            gemmRowBlockDispatchF32Avx512<kRowBlock, Fused>(
                acc + i * accStride + jb, accStride, a + i * aStride,
                aStride, bj, bStride, depth, nvec, masks);
        float *cj = acc + i * accStride + jb;
        const float *aj = a + i * aStride;
        switch (rows - i) {
          case 1:
            gemmRowBlockDispatchF32Avx512<1, Fused>(
                cj, accStride, aj, aStride, bj, bStride, depth, nvec,
                masks);
            break;
          case 2:
            gemmRowBlockDispatchF32Avx512<2, Fused>(
                cj, accStride, aj, aStride, bj, bStride, depth, nvec,
                masks);
            break;
          case 3:
            gemmRowBlockDispatchF32Avx512<3, Fused>(
                cj, accStride, aj, aStride, bj, bStride, depth, nvec,
                masks);
            break;
          case 4:
            gemmRowBlockDispatchF32Avx512<4, Fused>(
                cj, accStride, aj, aStride, bj, bStride, depth, nvec,
                masks);
            break;
          case 5:
            gemmRowBlockDispatchF32Avx512<5, Fused>(
                cj, accStride, aj, aStride, bj, bStride, depth, nvec,
                masks);
            break;
          default:
            break;
        }
    }
}

void
gemmTileF32Avx512(float *acc, std::size_t accStride, const float *a,
                  std::size_t aStride, const float *b,
                  std::size_t bStride, std::size_t rows,
                  std::size_t cols, std::size_t depth)
{
    gemmRowsF32Avx512<false>(acc, accStride, a, aStride, b, bStride,
                             rows, cols, depth);
}

void
gemmTileBf16Avx512(float *acc, std::size_t accStride,
                   const std::uint16_t *a, std::size_t aStride,
                   const std::uint16_t *b, std::size_t rows,
                   std::size_t cols, std::size_t depth)
{
    // Widen both operands to fp32 scratch once, then run the shared
    // register-blocked fp32 core. Widening is exact (bits << 16), so
    // the arithmetic — and each accumulator's ascending-k op order —
    // is identical to widening inline; hoisting it out of the row
    // blocks removes the per-block repeat of the conversion work and
    // the scalar widen feeding every A broadcast, which together
    // dominate the inline formulation. The same passes fold each
    // operand's exponent envelope: one per kRowBlock-row block of A (the
    // core's row groups) and one per B chunk. Thread-local scratch: no
    // allocation churn after warmup, no sharing between pool lanes.
    static thread_local std::vector<float> a_scratch;
    static thread_local std::vector<float> b_scratch;
    static thread_local std::vector<ExpRange> a_blocks;
    a_scratch.resize(rows * depth);
    a_blocks.clear();
    for (std::size_t i0 = 0; i0 < rows; i0 += kRowBlock) {
        WidenScan scan;
        for (std::size_t i = i0; i < std::min(rows, i0 + kRowBlock); ++i)
            scan.row(a_scratch.data() + i * depth, a + i * aStride, depth);
        a_blocks.push_back(scan.range());
    }
    // B is packed (layout in KernelSet): each chunk is a contiguous
    // depth x live block, widened in one sequential run while the next
    // chunk is prefetched. The library's callers pass 128-deep panels,
    // so a widened 64-column chunk (32 KiB) stays L1-resident across
    // the core's per-6-row-group re-reads.
    for (std::size_t jb = 0; jb < cols; jb += kBf16ChunkCols) {
        const std::size_t live = std::min(kBf16ChunkCols, cols - jb);
        b_scratch.resize(depth * live);
        WidenScan scan;
        scan.row(b_scratch.data(), b + jb * depth, depth * live);
        const ExpRange b_range = scan.range();
        prefetchNextBf16Chunk(b, jb, cols, depth);
        // Each maximal run of row blocks sharing one verdict goes to the
        // core in one call, so its row grouping is the same as for a
        // single unfused call.
        for (std::size_t g = 0; g < a_blocks.size();) {
            const bool fused = productsExact(a_blocks[g], b_range);
            std::size_t g_end = g + 1;
            while (g_end < a_blocks.size() &&
                   productsExact(a_blocks[g_end], b_range) == fused)
                ++g_end;
            const std::size_t i0 = g * kRowBlock;
            const std::size_t i1 = std::min(rows, g_end * kRowBlock);
            const auto core = fused ? gemmRowsF32Avx512<true>
                                    : gemmRowsF32Avx512<false>;
            core(acc + i0 * accStride + jb, accStride,
                 a_scratch.data() + i0 * depth, depth, b_scratch.data(),
                 live, i1 - i0, live, depth);
            g = g_end;
        }
    }
}

void
quantizeBitsRowAvx512(std::uint16_t *dst, const float *src,
                      std::size_t n)
{
    for (std::size_t j = 0; j < n; j += 16) {
        const __mmask16 m =
            headMask(std::min<std::size_t>(16, n - j));
        const __m512i bits = _mm512_castps_si512(
            _mm512_maskz_loadu_ps(m, src + j));
        const __m512i q = quantBits16(bits);
        _mm256_mask_storeu_epi16(dst + j, m,
                                 _mm512_cvtepi32_epi16(q));
    }
}

void
widenRowAvx512(float *dst, const std::uint16_t *src, std::size_t n)
{
    for (std::size_t j = 0; j < n; j += 16) {
        const __mmask16 m =
            headMask(std::min<std::size_t>(16, n - j));
        _mm512_mask_storeu_ps(dst + j, m, widen16(src + j, m));
    }
}

void
quantizeRoundtripRowAvx512(float *dst, const float *src, std::size_t n)
{
    for (std::size_t j = 0; j < n; j += 16) {
        const __mmask16 m =
            headMask(std::min<std::size_t>(16, n - j));
        const __m512 v = _mm512_maskz_loadu_ps(m, src + j);
        _mm512_mask_storeu_ps(dst + j, m, quantRoundtrip(v));
    }
}

void
truncateRowAvx512(float *dst, const float *src, std::size_t n)
{
    for (std::size_t j = 0; j < n; j += 16) {
        const __mmask16 m =
            headMask(std::min<std::size_t>(16, n - j));
        const __m512 v = _mm512_maskz_loadu_ps(m, src + j);
        _mm512_mask_storeu_ps(dst + j, m, truncate16(v));
    }
}

void
simdMulScalarRowAvx512(float *acc, float q, std::size_t n)
{
    const __m512 qv = _mm512_set1_ps(q);
    for (std::size_t j = 0; j < n; j += 16) {
        const __mmask16 m =
            headMask(std::min<std::size_t>(16, n - j));
        const __m512 x =
            truncate16(_mm512_maskz_loadu_ps(m, acc + j));
        _mm512_mask_storeu_ps(
            acc + j, m, quantRoundtrip(_mm512_mul_ps(x, qv)));
    }
}

void
simdAddScalarRowAvx512(float *acc, float q, std::size_t n)
{
    const __m512 qv = _mm512_set1_ps(q);
    for (std::size_t j = 0; j < n; j += 16) {
        const __mmask16 m =
            headMask(std::min<std::size_t>(16, n - j));
        const __m512 x =
            truncate16(_mm512_maskz_loadu_ps(m, acc + j));
        _mm512_mask_storeu_ps(
            acc + j, m, quantRoundtrip(_mm512_add_ps(x, qv)));
    }
}

void
simdMulVectorRowAvx512(float *acc, const float *v, std::size_t n)
{
    for (std::size_t j = 0; j < n; j += 16) {
        const __mmask16 m =
            headMask(std::min<std::size_t>(16, n - j));
        const __m512 x =
            truncate16(_mm512_maskz_loadu_ps(m, acc + j));
        const __m512 qv =
            quantRoundtrip(_mm512_maskz_loadu_ps(m, v + j));
        _mm512_mask_storeu_ps(
            acc + j, m, quantRoundtrip(_mm512_mul_ps(x, qv)));
    }
}

void
simdAddVectorRowAvx512(float *acc, const float *v, std::size_t n)
{
    for (std::size_t j = 0; j < n; j += 16) {
        const __mmask16 m =
            headMask(std::min<std::size_t>(16, n - j));
        const __m512 x =
            truncate16(_mm512_maskz_loadu_ps(m, acc + j));
        const __m512 qv =
            quantRoundtrip(_mm512_maskz_loadu_ps(m, v + j));
        _mm512_mask_storeu_ps(
            acc + j, m, quantRoundtrip(_mm512_add_ps(x, qv)));
    }
}

void
scaleQuantizeRowAvx512(float *v, float s, std::size_t n)
{
    const __m512 sv = _mm512_set1_ps(s);
    for (std::size_t j = 0; j < n; j += 16) {
        const __mmask16 m =
            headMask(std::min<std::size_t>(16, n - j));
        const __m512 y =
            _mm512_mul_ps(_mm512_maskz_loadu_ps(m, v + j), sv);
        _mm512_mask_storeu_ps(v + j, m, quantRoundtrip(y));
    }
}

void
lutRowAvx512(float *acc, const std::uint32_t *table, std::size_t n)
{
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i bits = _mm512_loadu_si512(acc + j);
        const __m512i idx = _mm512_srli_epi32(bits, 16);
        const __m512i out = _mm512_i32gather_epi32(idx, table, 4);
        _mm512_storeu_si512(acc + j, out);
    }
    if (j < n) {
        const __mmask16 m = headMask(n - j);
        const __m512i bits = _mm512_maskz_loadu_epi32(m, acc + j);
        const __m512i idx = _mm512_srli_epi32(bits, 16);
        const __m512i out = _mm512_mask_i32gather_epi32(
            _mm512_setzero_si512(), m, idx, table, 4);
        _mm512_mask_storeu_epi32(acc + j, m, out);
    }
}

} // namespace

const KernelSet &
avx512KernelSet()
{
    static const KernelSet set = {
        "avx512",
        gemmTileBf16Avx512,
        gemmTileF32Avx512,
        quantizeBitsRowAvx512,
        widenRowAvx512,
        quantizeRoundtripRowAvx512,
        truncateRowAvx512,
        simdMulScalarRowAvx512,
        simdAddScalarRowAvx512,
        simdMulVectorRowAvx512,
        simdAddVectorRowAvx512,
        scaleQuantizeRowAvx512,
        lutRowAvx512,
    };
    return set;
}

} // namespace prose::kernels
