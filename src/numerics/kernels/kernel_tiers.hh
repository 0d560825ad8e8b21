/**
 * @file
 * Internal wiring between the per-tier kernel translation units and the
 * dispatcher. Each SIMD TU is compiled with its own -m flags, so only
 * kernel_dispatch.cc (compiled for the baseline ISA) may look at CPUID
 * and decide which of these tables is safe to run. Everything here is a
 * declaration or a plain aggregate: a tier TU that includes this header
 * emits no code for it.
 */

#ifndef PROSE_NUMERICS_KERNELS_KERNEL_TIERS_HH
#define PROSE_NUMERICS_KERNELS_KERNEL_TIERS_HH

#include "kernel_dispatch.hh"

namespace prose::kernels {

/** The scalar reference table (always compiled). */
const KernelSet &scalarKernelSet();

#ifdef PROSE_KERNELS_HAVE_AVX2
const KernelSet &avx2KernelSet();
#endif

#ifdef PROSE_KERNELS_HAVE_AVX512
const KernelSet &avx512KernelSet();
#endif

#ifdef PROSE_KERNELS_HAVE_AVX512BF16
/** Hardware VCVTNEPS2BF16 quantize row (with a denormal-input guard);
 *  spliced into the AVX-512 table when CPUID reports AVX512-BF16. */
void quantizeBitsRowAvx512Bf16(std::uint16_t *dst, const float *src,
                               std::size_t n);
#endif

/**
 * Exponent envelope of a set of bf16 entries: the min (lo) and max (hi)
 * biased exponent over the nonzero ones. lo == 0 means a subnormal
 * entry and hi == 255 an Inf or NaN. The neutral values (lo 255, hi 0)
 * stand for "no nonzero entry". A plain aggregate, so the tier TUs that
 * fill it instantiate no constructor.
 */
struct ExpRange
{
    int lo;
    int hi;
};

/** One thread's scratch for the SIMD tiers' bf16 tile front end. */
struct TileScratch
{
    float *a;           ///< widened A rows
    float *b;           ///< one widened B chunk
    ExpRange *aRanges;  ///< per-row-block envelopes of A
};

/**
 * This thread's tile scratch: three ScratchBuffer spans
 * (common/scratch.hh), 64-byte aligned and uninitialized, grown to at
 * least the given entry counts and kept across calls (no allocation
 * churn after warmup, no sharing between pool lanes). It lives in the
 * baseline-ISA kernel_dispatch.cc so that ScratchBuffer is never
 * instantiated under a tier's -m flags. Valid until the next call on
 * the same thread.
 */
TileScratch tileScratch(std::size_t aFloats, std::size_t bFloats,
                        std::size_t aBlocks);

} // namespace prose::kernels

#endif // PROSE_NUMERICS_KERNELS_KERNEL_TIERS_HH
