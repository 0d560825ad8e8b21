/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the numerics/fsim hot loops.
 *
 * A KernelSet is a table of function pointers covering the inner loops
 * that dominate the profile: the fp32 and bf16 GEMM microkernels behind
 * the tiled matmul, the fast-forward systolic engine and the
 * cached-weight model path, the bf16<->fp32 conversion
 * sweeps, and the per-row SIMD-unit/softmax epilogues. Three tiers are
 * provided — scalar (the reference), AVX2, and AVX-512 (which picks up
 * the AVX512-BF16 convert instruction when the CPU has it) — selected
 * once at startup by CPUID and overridable with PROSE_SIMD.
 *
 * Bit-exactness contract (non-negotiable): every tier produces results
 * bit-identical to the scalar reference for every input, including
 * signed zeros, denormals, and +-Inf; wherever the reference produces
 * a NaN, every tier produces a NaN (the payload bits are outside the
 * contract — IEEE 754 leaves payload selection to the operation, x86
 * propagates the first NaN *source operand*, and the scalar tier's
 * operand order is whatever the compiler emitted). Vectorization is
 * only applied across *independent* output lanes (the j dimension); the
 * ascending-k accumulation order of each output element is preserved
 * verbatim. The scalar reference rounds every MAC's product and sum
 * separately, so a MAC is fused only where every product is provably
 * exact: then fma(a, b, c) and c + a * b are the same number for any
 * accumulator. The one such site is gemmTileBf16 on a tier whose
 * traits set kFusedMac (AVX-512), which fuses a (row block x B chunk)
 * only when all its bf16 products are fp32 normals (see productsExact
 * in kernel_body.hh). Everywhere else the kernels/ translation units,
 * compiled with -ffp-contract=off and without -mfma, keep the two
 * roundings separate; tests/numerics/
 * test_kernel_dispatch.cc hammers every tier against scalar on
 * randomized shapes, strides, special values, the fused gate's bounds
 * and every FTZ/DAZ setting.
 *
 * Selection:
 *   - activeKernels() returns the process-wide table (CPUID best tier,
 *     or whatever PROSE_SIMD={auto,scalar,avx2,avx512} forced).
 *   - setActiveSimdTier() overrides at runtime (tests, debugging).
 *   - kernelsForTier() fetches a specific tier, fatal if this build or
 *     CPU cannot run it.
 */

#ifndef PROSE_NUMERICS_KERNELS_KERNEL_DISPATCH_HH
#define PROSE_NUMERICS_KERNELS_KERNEL_DISPATCH_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace prose::kernels {

/** Column width of one chunk of a packed gemmTileBf16 B panel: the
 *  widest column block of the AVX-512 GEMM core (4 x 16 lanes). */
constexpr std::size_t kBf16ChunkCols = 64;

/**
 * One tier's implementations of the hot inner loops. All pointers are
 * always non-null. Unless stated otherwise, `n` is an element count and
 * rows are contiguous; strides are in elements, not bytes.
 *
 * bf16 values travel as raw uint16_t bit patterns (the top half of the
 * IEEE-754 binary32 encoding) so tiles can be stored as compact
 * structure-of-arrays planes; widening shifts the bits left 16 and is
 * exact.
 */
struct KernelSet
{
    /** Tier name for logs ("scalar", "avx2", ...). */
    const char *name;

    /**
     * acc[i][j] += sum_k widen(a[i][k]) * widen(b[k][j]), accumulated
     * per output element in ascending-k order — the cached-bf16 model
     * GEMM and the per-call bf16 matmul. `acc` is rows x cols with row
     * stride accStride; `a` is rows x depth (stride aStride). `b` is a
     * packed depth x cols panel: its kBf16ChunkCols-column chunks sit
     * one after another, chunk c a depth x live block (live =
     * min(kBf16ChunkCols, cols - c * kBf16ChunkCols)) with row stride
     * live, starting at b + c * kBf16ChunkCols * depth. The kernel
     * walks the chunks front to back, so the whole panel is one
     * sequential stream. When cols <= kBf16ChunkCols the panel is the
     * row-major depth x cols plane. Any depth is correct; the tiled
     * matmul passes 128-deep panels, whose widened chunks fit L1.
     * Every element is MAC'd — no zero skipping — matching the stepped
     * wavefront, which fires every PE with two valid operands (so
     * +-0 * Inf still produces NaN). The tiled matmul's bits path
     * relies on `acc += ±0 · finite` being an exact no-op on
     * accumulators that are never -0.
     * The AVX-512 tier fuses the MACs of blocks whose products are all
     * exact (see the contract above); the result bits are unchanged.
     */
    void (*gemmTileBf16)(float *acc, std::size_t accStride,
                         const std::uint16_t *a, std::size_t aStride,
                         const std::uint16_t *b, std::size_t rows,
                         std::size_t cols, std::size_t depth);

    /**
     * acc[i][j] += sum_k a[i][k] * b[k][j] in ascending-k order per
     * output element — the fp32 twin of gemmTileBf16 (row-major B),
     * behind the tiled matmul's cache blocks and the fast-forward
     * systolic engine, which runs it on pre-widened bf16 planes.
     * Accumulators live in registers across the
     * whole depth loop (the MAC-row formulation round-trips the acc row
     * through memory on every k step, which is the dominant cost for
     * fp32 GEMM). Like the bf16 tile, every element is MAC'd; callers
     * with a zero-skip contract rely on `acc += ±0 · finite` being an
     * exact no-op on accumulators that are never -0.
     */
    void (*gemmTileF32)(float *acc, std::size_t accStride,
                        const float *a, std::size_t aStride,
                        const float *b, std::size_t bStride,
                        std::size_t rows, std::size_t cols,
                        std::size_t depth);

    /** dst[j] = bf16 bits of src[j], round-to-nearest-even,
     *  NaN-preserving (Bfloat16::roundFromFloat semantics). */
    void (*quantizeBitsRow)(std::uint16_t *dst, const float *src,
                            std::size_t n);

    /** dst[j] = widen(src[j]) — exact bf16-bits -> fp32. */
    void (*widenRow)(float *dst, const std::uint16_t *src, std::size_t n);

    /** dst[j] = quantizeBf16(src[j]) — fp32 -> bf16 -> fp32 round trip.
     *  In-place (dst == src) allowed. */
    void (*quantizeRoundtripRow)(float *dst, const float *src,
                                 std::size_t n);

    /** dst[j] = truncateBf16(src[j]) — drop the low 16 bits (the PE
     *  OUTPUT-port tap). In-place allowed. */
    void (*truncateRow)(float *dst, const float *src, std::size_t n);

    /** acc[j] = quantizeBf16(truncateBf16(acc[j]) * q); q must already
     *  be bf16-quantized (SIMD-unit MulScalar semantics). */
    void (*simdMulScalarRow)(float *acc, float q, std::size_t n);

    /** acc[j] = quantizeBf16(truncateBf16(acc[j]) + q); q pre-quantized. */
    void (*simdAddScalarRow)(float *acc, float q, std::size_t n);

    /** acc[j] = quantizeBf16(truncateBf16(acc[j]) * quantizeBf16(v[j])). */
    void (*simdMulVectorRow)(float *acc, const float *v, std::size_t n);

    /** acc[j] = quantizeBf16(truncateBf16(acc[j]) + quantizeBf16(v[j])). */
    void (*simdAddVectorRow)(float *acc, const float *v, std::size_t n);

    /** v[j] = quantizeBf16(v[j] * s) — the softmax divide epilogue. */
    void (*scaleQuantizeRow)(float *v, float s, std::size_t n);

    /**
     * acc[j] = bitcast<float>(table[bits(acc[j]) >> 16]) — the
     * special-function (GELU/Exp) sweep. `table` is a flat 65536-entry
     * map from a bf16 bit pattern (the truncated top half of the
     * accumulator) to the widened fp32 bit pattern of the LUT output.
     * TwoLevelLut::flatFloatBits() is that map: the table builds it
     * once, at construction, by evaluating the two-level hardware
     * lookup on every possible input, so a plain
     * table read — scalar or gathered — is bit-exact by construction,
     * NaNs and denormals included.
     */
    void (*lutRow)(float *acc, const std::uint32_t *table,
                   std::size_t n);
};

/** Dispatch tiers, ordered from reference to widest. */
enum class SimdTier
{
    Scalar,
    Avx2,
    Avx512,
};

/** Lowercase tier name ("scalar", "avx2", "avx512"). */
const char *toString(SimdTier tier);

/**
 * Strict parse of a tier name: "scalar", "avx2", "avx512", or "auto"
 * (which resolves to bestSimdTier()). Unknown names are fatal.
 * Availability is NOT checked — use simdTierAvailable / kernelsForTier.
 */
SimdTier parseSimdTier(const std::string &name);

/**
 * Forgiving PROSE_SIMD semantics for environment input: null/empty or
 * "auto" mean bestSimdTier(); an unknown name warns and falls back to
 * auto; a known but unavailable tier warns and clamps to the best
 * available one. Exposed separately from the cached default so tests
 * can exercise the parsing without touching the process environment.
 */
SimdTier simdTierFromSpec(const char *spec);

/** True when this build AND this CPU can run the tier. Scalar is
 *  always available. */
bool simdTierAvailable(SimdTier tier);

/** Widest tier available on this build+CPU. */
SimdTier bestSimdTier();

/** The PROSE_SIMD-resolved startup tier (read once, cached). */
SimdTier defaultSimdTier();

/** The kernel table for one tier; fatal if unavailable. */
const KernelSet &kernelsForTier(SimdTier tier);

/** The process-wide active kernel table (lazy-initialized from
 *  defaultSimdTier()). Safe to call concurrently. */
const KernelSet &activeKernels();

/** Tier behind activeKernels(). */
SimdTier activeSimdTier();

/**
 * Force the active tier (fatal if unavailable). For tests and
 * debugging; call before spinning up concurrent work — switching tiers
 * mid-parallel-region is a race on the dispatch pointer.
 */
void setActiveSimdTier(SimdTier tier);

} // namespace prose::kernels

#endif // PROSE_NUMERICS_KERNELS_KERNEL_DISPATCH_HH
