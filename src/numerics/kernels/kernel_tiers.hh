/**
 * @file
 * Internal wiring between the per-tier kernel translation units and the
 * dispatcher. Each SIMD TU is compiled with its own -m flags, so only
 * kernel_dispatch.cc (compiled for the baseline ISA) may look at CPUID
 * and decide which of these tables is safe to run.
 */

#ifndef PROSE_NUMERICS_KERNELS_KERNEL_TIERS_HH
#define PROSE_NUMERICS_KERNELS_KERNEL_TIERS_HH

#include "kernel_dispatch.hh"

#if defined(PROSE_KERNELS_HAVE_AVX2) || defined(PROSE_KERNELS_HAVE_AVX512)
#include <xmmintrin.h>

#include <algorithm>
#endif

namespace prose::kernels {

/** The scalar reference table (always compiled). */
const KernelSet &scalarKernelSet();

#ifdef PROSE_KERNELS_HAVE_AVX2
const KernelSet &avx2KernelSet();
#endif

#ifdef PROSE_KERNELS_HAVE_AVX512
const KernelSet &avx512KernelSet();
#endif

#if defined(PROSE_KERNELS_HAVE_AVX2) || defined(PROSE_KERNELS_HAVE_AVX512)
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
        depth * std::min(kBf16ChunkCols, cols - next) * sizeof(*b);
    const char *chunk = reinterpret_cast<const char *>(b + next * depth);
    for (std::size_t off = 0; off < bytes; off += 64)
        _mm_prefetch(chunk + off, _MM_HINT_T1);
}
#endif

#ifdef PROSE_KERNELS_HAVE_AVX512BF16
/** Hardware VCVTNEPS2BF16 quantize row (with a denormal-input guard);
 *  spliced into the AVX-512 table when CPUID reports AVX512-BF16. */
void quantizeBitsRowAvx512Bf16(std::uint16_t *dst, const float *src,
                               std::size_t n);
#endif

} // namespace prose::kernels

#endif // PROSE_NUMERICS_KERNELS_KERNEL_TIERS_HH
