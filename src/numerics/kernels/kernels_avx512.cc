/**
 * @file
 * AVX-512 kernel tier (F+BW+DQ+VL): the traits that instantiate
 * kernel_body.hh with 16-lane zmm vectors. Compiled with its own -m
 * flags and -ffp-contract=off, so the compiler never fuses a multiply
 * and an add on its own. The one fused MAC is explicit: kFusedMac lets
 * the bf16 GEMM tile issue _mm512_fmadd_ps for (row block x B chunk)
 * pairs whose every product is provably an exact fp32 normal, where
 * fma(a, b, c) and c + a * b are the same number (see productsExact).
 *
 * Partial vectors are masked: masked loads and stores fault-suppress
 * the dead lanes, so a row of any length runs vector code throughout.
 */

// GCC PR105593: _mm512_srli_epi32's merge-source is the "undefined"
// self-init idiom (__m512i __Y = __Y) and trips -Wmaybe-uninitialized
// when inlined at -O3, although every lane is overwritten under an
// all-ones mask. Header-level suppression for this TU only.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include "kernel_body.hh"

namespace prose::kernels {

namespace {

struct Avx512
{
    using Vec = __m512;
    using Bits = __m512i;
    using Tail = __mmask16;

    static constexpr std::size_t kLanes = 16;
    /** 6 x 4 accumulators + 4 B vectors and a broadcast of the 32 zmm
     *  registers. */
    static constexpr int kRowBlock = 6;
    static constexpr int kMaxVecs = 4;
    static constexpr bool kFusedMac = true;

    static Tail
    tail(std::size_t live)
    {
        return static_cast<__mmask16>((1u << live) - 1u);
    }

    static Bits bits(Vec v) { return _mm512_castps_si512(v); }
    static Vec floats(Bits b) { return _mm512_castsi512_ps(b); }

    static Vec load(const float *p, Full) { return _mm512_loadu_ps(p); }
    static Vec
    load(const float *p, Tail m)
    {
        return _mm512_maskz_loadu_ps(m, p);
    }
    static void store(float *p, Full, Vec v) { _mm512_storeu_ps(p, v); }
    static void
    store(float *p, Tail m, Vec v)
    {
        _mm512_mask_storeu_ps(p, m, v);
    }

    static Vec
    widenRaw(__m256i raw)
    {
        return floats(_mm512_slli_epi32(_mm512_cvtepu16_epi32(raw), 16));
    }
    static Vec
    widen(const std::uint16_t *src, Full)
    {
        return widenRaw(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(src)));
    }
    static Vec
    widen(const std::uint16_t *src, Tail m)
    {
        return widenRaw(_mm256_maskz_loadu_epi16(
            m, reinterpret_cast<const __m256i *>(src)));
    }

    static void
    storeBf16(std::uint16_t *dst, Full, Bits lanes)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst),
                            _mm512_cvtepi32_epi16(lanes));
    }
    static void
    storeBf16(std::uint16_t *dst, Tail m, Bits lanes)
    {
        _mm256_mask_storeu_epi16(dst, m, _mm512_cvtepi32_epi16(lanes));
    }

    static Bits
    splat(std::uint32_t x)
    {
        return _mm512_set1_epi32(static_cast<std::int32_t>(x));
    }
    static Bits bitAnd(Bits a, Bits b) { return _mm512_and_si512(a, b); }
    static Bits bitOr(Bits a, Bits b) { return _mm512_or_si512(a, b); }
    static Bits add32(Bits a, Bits b) { return _mm512_add_epi32(a, b); }
    static Bits shr16(Bits a) { return _mm512_srli_epi32(a, 16); }
    static Bits shr23(Bits a) { return _mm512_srli_epi32(a, 23); }
    /** `yes` in the lanes where a > b (signed), else `no`. */
    static Bits
    selectGt(Bits a, Bits b, Bits no, Bits yes)
    {
        return _mm512_mask_mov_epi32(no, _mm512_cmpgt_epi32_mask(a, b), yes);
    }

    static Bits
    gather(const std::uint32_t *table, Bits idx, Full)
    {
        return _mm512_i32gather_epi32(idx, table, 4);
    }
    static Bits
    gather(const std::uint32_t *table, Bits idx, Tail m)
    {
        return _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), m, idx,
                                           table, 4);
    }

    static Vec zero() { return _mm512_setzero_ps(); }
    static Vec broadcast(float x) { return _mm512_set1_ps(x); }
    static Vec add(Vec a, Vec b) { return _mm512_add_ps(a, b); }
    static Vec mul(Vec a, Vec b) { return _mm512_mul_ps(a, b); }
    static Vec fmadd(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }

    static Bits min32(Bits a, Bits b) { return _mm512_min_epi32(a, b); }
    static Bits max32(Bits a, Bits b) { return _mm512_max_epi32(a, b); }
    static int reduceMin32(Bits a) { return _mm512_reduce_min_epi32(a); }
    static int reduceMax32(Bits a) { return _mm512_reduce_max_epi32(a); }

    /** Eight double lanes in one zmm; 4 x 2 groups of sums and absolute
     *  sums are 8 of the 32 zmm registers. */
    using VecD = __m512d;
    static constexpr int kSumGroups = 4;

    static VecD widenD(__m256 x) { return _mm512_cvtps_pd(x); }
    static VecD zeroD() { return _mm512_setzero_pd(); }
    static VecD broadcastD(double x) { return _mm512_set1_pd(x); }
    static VecD addD(VecD a, VecD b) { return _mm512_add_pd(a, b); }
    static VecD mulD(VecD a, VecD b) { return _mm512_mul_pd(a, b); }
    static VecD absD(VecD a) { return _mm512_abs_pd(a); }
    /** The first `live` (1..8) lanes of v to p. */
    static void
    storeD(double *p, std::size_t live, VecD v)
    {
        _mm512_mask_storeu_pd(p, static_cast<__mmask8>((1u << live) - 1u),
                              v);
    }
};

} // namespace

const KernelSet &
avx512KernelSet()
{
    static constexpr KernelSet set = kernelSet<Avx512>("avx512");
    return set;
}

} // namespace prose::kernels
