/**
 * @file
 * AVX2 kernel tier: the traits that instantiate kernel_body.hh with
 * 8-lane ymm vectors. Compiled with -mavx2 and -ffp-contract=off,
 * without -mfma: this tier fuses nowhere (kFusedMac is false and the
 * dispatcher does not probe the FMA3 CPUID bit), so every MAC rounds
 * the product and the sum separately, as the scalar reference does.
 *
 * Partial vectors use vmaskmov for fp32 lanes and a zeroed 8-entry
 * stack buffer for bf16 lanes (AVX2 has no 16-bit masked load).
 */

#include "kernel_body.hh"

namespace prose::kernels {

namespace {

struct Avx2
{
    using Vec = __m256;
    using Bits = __m256i;

    static constexpr std::size_t kLanes = 8;
    /** 6 x 2 accumulators, the classic AVX2 GEMM block; of the blocks
     *  that fit the 16 ymm registers it measured fastest here. */
    static constexpr int kRowBlock = 6;
    static constexpr int kMaxVecs = 2;
    static constexpr bool kFusedMac = false;

    struct Tail
    {
        __m256i mask;  ///< all-ones in the live lanes
        std::size_t live;
    };

    static Tail
    tail(std::size_t live)
    {
        const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        return { _mm256_cmpgt_epi32(
                     _mm256_set1_epi32(static_cast<int>(live)), lane),
                 live };
    }

    static Bits bits(Vec v) { return _mm256_castps_si256(v); }
    static Vec floats(Bits b) { return _mm256_castsi256_ps(b); }

    static Vec load(const float *p, Full) { return _mm256_loadu_ps(p); }
    static Vec
    load(const float *p, const Tail &t)
    {
        return _mm256_maskload_ps(p, t.mask);
    }
    static void store(float *p, Full, Vec v) { _mm256_storeu_ps(p, v); }
    static void
    store(float *p, const Tail &t, Vec v)
    {
        _mm256_maskstore_ps(p, t.mask, v);
    }

    static Vec
    widen(const std::uint16_t *src, Full)
    {
        const __m128i raw =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(src));
        return floats(_mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16));
    }
    static Vec
    widen(const std::uint16_t *src, const Tail &t)
    {
        std::uint16_t buf[kLanes] = {};
        for (std::size_t l = 0; l < t.live; ++l)
            buf[l] = src[l];
        return widen(buf, Full{});
    }

    static void
    storeBf16(std::uint16_t *dst, Full, Bits lanes)
    {
        // packus interleaves 128-bit halves; permute [0,2] restores order.
        const __m256i packed = _mm256_packus_epi32(lanes, lanes);
        const __m256i ordered = _mm256_permute4x64_epi64(packed, 0x88);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst),
                         _mm256_castsi256_si128(ordered));
    }
    static void
    storeBf16(std::uint16_t *dst, const Tail &t, Bits lanes)
    {
        std::uint16_t buf[kLanes];
        storeBf16(buf, Full{}, lanes);
        for (std::size_t l = 0; l < t.live; ++l)
            dst[l] = buf[l];
    }

    static Bits
    splat(std::uint32_t x)
    {
        return _mm256_set1_epi32(static_cast<std::int32_t>(x));
    }
    static Bits bitAnd(Bits a, Bits b) { return _mm256_and_si256(a, b); }
    static Bits bitOr(Bits a, Bits b) { return _mm256_or_si256(a, b); }
    static Bits add32(Bits a, Bits b) { return _mm256_add_epi32(a, b); }
    static Bits shr16(Bits a) { return _mm256_srli_epi32(a, 16); }
    static Bits shr23(Bits a) { return _mm256_srli_epi32(a, 23); }
    /** `yes` in the lanes where a > b (signed), else `no`. */
    static Bits
    selectGt(Bits a, Bits b, Bits no, Bits yes)
    {
        return _mm256_blendv_epi8(no, yes, _mm256_cmpgt_epi32(a, b));
    }

    static Bits
    gather(const std::uint32_t *table, Bits idx, Full)
    {
        return _mm256_i32gather_epi32(
            reinterpret_cast<const int *>(table), idx, 4);
    }
    static Bits
    gather(const std::uint32_t *table, Bits idx, const Tail &t)
    {
        return _mm256_mask_i32gather_epi32(
            _mm256_setzero_si256(), reinterpret_cast<const int *>(table),
            idx, t.mask, 4);
    }

    static Vec zero() { return _mm256_setzero_ps(); }
    static Vec broadcast(float x) { return _mm256_set1_ps(x); }
    static Vec add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
    static Vec mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }

    /** Eight double lanes as two ymm halves; 2 x 2 groups of sums and
     *  absolute sums are 8 of the 16 ymm registers. */
    struct VecD
    {
        __m256d lo, hi;
    };
    static constexpr int kSumGroups = 2;

    static VecD
    widenD(__m256 x)
    {
        return { _mm256_cvtps_pd(_mm256_castps256_ps128(x)),
                 _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1)) };
    }
    static VecD zeroD() { return { _mm256_setzero_pd(), _mm256_setzero_pd() }; }
    static VecD
    broadcastD(double x)
    {
        return { _mm256_set1_pd(x), _mm256_set1_pd(x) };
    }
    static VecD
    addD(VecD a, VecD b)
    {
        return { _mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi) };
    }
    static VecD
    mulD(VecD a, VecD b)
    {
        return { _mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi) };
    }
    static VecD
    absD(VecD a)
    {
        const __m256d sign = _mm256_set1_pd(-0.0);
        return { _mm256_andnot_pd(sign, a.lo), _mm256_andnot_pd(sign, a.hi) };
    }
    /** The first `live` (1..8) lanes of v to p. */
    static void
    storeD(double *p, std::size_t live, VecD v)
    {
        const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
        const auto firstLanes = [&lane](std::size_t n) {
            return _mm256_cmpgt_epi64(
                _mm256_set1_epi64x(static_cast<long long>(n)), lane);
        };
        if (live >= 4) {
            _mm256_storeu_pd(p, v.lo);
            _mm256_maskstore_pd(p + 4, firstLanes(live - 4), v.hi);
        } else {
            _mm256_maskstore_pd(p, firstLanes(live), v.lo);
        }
    }
};

} // namespace

const KernelSet &
avx2KernelSet()
{
    static constexpr KernelSet set = kernelSet<Avx2>("avx2");
    return set;
}

} // namespace prose::kernels
