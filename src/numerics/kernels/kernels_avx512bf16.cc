/**
 * @file
 * Hardware bf16 conversion (AVX512-BF16's VCVTNEPS2BF16) for the
 * quantize row, used in place of the integer RNE emulation when CPUID
 * says the instruction exists.
 *
 * VCVTNEPS2BF16 rounds to nearest-even and quiets NaNs exactly like
 * Bfloat16::roundFromFloat, with one documented exception: it treats
 * denormal *inputs* as zero (DAZ behaviour regardless of MXCSR), where
 * the reference rounds them like any other value. Denormal fp32 inputs
 * always produce denormal bf16 results (same exponent range), so the
 * guard below detects chunks containing any denormal input and routes
 * just those through the scalar tier's row, which stays in its
 * baseline TU (an inline reference helper expanded here would leave a
 * weak copy compiled for AVX-512). Randomized cross-tier tests pin this
 * tier to the scalar bits, denormals included.
 */

#include "kernel_tiers.hh"

#include <immintrin.h>

namespace prose::kernels {

void
quantizeBitsRowAvx512Bf16(std::uint16_t *dst, const float *src,
                          std::size_t n)
{
    for (std::size_t j = 0; j < n; j += 16) {
        const std::size_t live = n - j < 16 ? n - j : 16;
        const __mmask16 m =
            static_cast<__mmask16>((1u << live) - 1u);
        const __m512 v = _mm512_maskz_loadu_ps(m, src + j);
        const __m512i abs = _mm512_and_si512(
            _mm512_castps_si512(v), _mm512_set1_epi32(0x7fffffff));
        // Denormal input: 0 < abs < 2^-126. Dead lanes loaded as +0
        // can never trip this.
        const __mmask16 denormal = _mm512_mask_cmplt_epi32_mask(
            _mm512_cmpgt_epi32_mask(abs, _mm512_setzero_si512()), abs,
            _mm512_set1_epi32(0x00800000));
        if (denormal) {
            scalarKernelSet().quantizeBitsRow(dst + j, src + j, live);
            continue;
        }
        // GCC vector types convert with a (C-style) bit cast only.
        const __m256i h = (__m256i)_mm512_cvtneps_pbh(v);
        _mm256_mask_storeu_epi16(dst + j, m, h);
    }
}

} // namespace prose::kernels
