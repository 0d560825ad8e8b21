/**
 * @file
 * Tier selection: CPUID feature probing, the PROSE_SIMD override, and
 * the process-wide active-kernel pointer. This TU is compiled for the
 * baseline ISA; the per-tier TUs carry their own -m flags and are only
 * entered after the checks here say the CPU can run them.
 */

#include "kernel_dispatch.hh"

#include <atomic>
#include <cstdlib>

#include "common/logging.hh"
#include "common/scratch.hh"
#include "kernel_tiers.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace prose::kernels {

namespace {

#if defined(__x86_64__) || defined(__i386__)

/** XCR0 as the OS configured it (0 when XSAVE is unavailable). */
std::uint64_t
readXcr0()
{
    unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return 0;
    constexpr unsigned int kOsxsaveBit = 1u << 27;
    if (!(ecx & kOsxsaveBit))
        return 0;
    unsigned int lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

struct CpuFeatures
{
    bool avx2 = false;
    bool avx512 = false;     ///< F+BW+DQ+VL, with OS zmm state enabled
    bool avx512bf16 = false; ///< VCVTNEPS2BF16 et al.
};

CpuFeatures
probeCpu()
{
    CpuFeatures features;
    unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
        return features;

    const std::uint64_t xcr0 = readXcr0();
    // XCR0 bits: 1 = SSE state, 2 = AVX (ymm) state, 5..7 = opmask and
    // upper zmm state. Without OS support the instructions fault.
    const bool os_avx = (xcr0 & 0x6) == 0x6;
    const bool os_avx512 = os_avx && (xcr0 & 0xe0) == 0xe0;

    constexpr unsigned int kAvx2Bit = 1u << 5;
    features.avx2 = os_avx && (ebx & kAvx2Bit);

    constexpr unsigned int kAvx512fBit = 1u << 16;
    constexpr unsigned int kAvx512dqBit = 1u << 17;
    constexpr unsigned int kAvx512bwBit = 1u << 30;
    constexpr unsigned int kAvx512vlBit = 1u << 31;
    constexpr unsigned int kAvx512All =
        kAvx512fBit | kAvx512dqBit | kAvx512bwBit | kAvx512vlBit;
    features.avx512 = os_avx512 && (ebx & kAvx512All) == kAvx512All;

    unsigned int eax1 = 0, ebx1 = 0, ecx1 = 0, edx1 = 0;
    if (features.avx512 &&
        __get_cpuid_count(7, 1, &eax1, &ebx1, &ecx1, &edx1)) {
        constexpr unsigned int kAvx512Bf16Bit = 1u << 5;
        features.avx512bf16 = (eax1 & kAvx512Bf16Bit) != 0;
    }
    return features;
}

#else

struct CpuFeatures
{
    bool avx2 = false;
    bool avx512 = false;
    bool avx512bf16 = false;
};

CpuFeatures
probeCpu()
{
    return CpuFeatures{};
}

#endif

const CpuFeatures &
cpu()
{
    static const CpuFeatures features = probeCpu();
    return features;
}

/** The AVX-512 table with the hardware-BF16 convert spliced in when
 *  both the build and the CPU have it. */
#ifdef PROSE_KERNELS_HAVE_AVX512
const KernelSet &
resolvedAvx512KernelSet()
{
    static const KernelSet set = [] {
        KernelSet s = avx512KernelSet();
#ifdef PROSE_KERNELS_HAVE_AVX512BF16
        if (cpu().avx512bf16)
            s.quantizeBitsRow = quantizeBitsRowAvx512Bf16;
#endif
        return s;
    }();
    return set;
}
#endif

/** Each tier's name for toString and both parsers. The tier tables'
 *  KernelSet::name spell it the same, so activeSimdTier parses it. */
struct TierName
{
    SimdTier tier;
    const char *name;
};

constexpr TierName kTierNames[] = {
    { SimdTier::Scalar, "scalar" },
    { SimdTier::Avx2, "avx2" },
    { SimdTier::Avx512, "avx512" },
};

/** The table entry named `name`, or nullptr when no tier is. */
const TierName *
findTier(const std::string &name)
{
    for (const TierName &t : kTierNames)
        if (name == t.name)
            return &t;
    return nullptr;
}

std::atomic<const KernelSet *> &
activeKernelSlot()
{
    static std::atomic<const KernelSet *> slot{ nullptr };
    return slot;
}

} // namespace

TileScratch
tileScratch(std::size_t aFloats, std::size_t bFloats, std::size_t aBlocks)
{
    static thread_local ScratchBuffer<float> a, b;
    static thread_local ScratchBuffer<ExpRange> ranges;
    return { a.get(aFloats), b.get(bFloats), ranges.get(aBlocks) };
}

const char *
toString(SimdTier tier)
{
    for (const TierName &t : kTierNames)
        if (t.tier == tier)
            return t.name;
    return "?";
}

SimdTier
parseSimdTier(const std::string &name)
{
    if (name == "auto")
        return bestSimdTier();
    const TierName *t = findTier(name);
    if (!t) {
        fatal("unknown SIMD tier \"", name,
              "\"; expected auto, scalar, avx2, or avx512");
    }
    return t->tier;
}

SimdTier
simdTierFromSpec(const char *spec)
{
    if (!spec || !*spec)
        return bestSimdTier();
    const std::string s = spec;
    if (s == "auto")
        return bestSimdTier();
    const TierName *t = findTier(s);
    if (!t) {
        warn("ignoring invalid PROSE_SIMD=\"", s,
             "\"; using auto (expected auto, scalar, avx2, or avx512)");
        return bestSimdTier();
    }
    if (!simdTierAvailable(t->tier)) {
        const SimdTier best = bestSimdTier();
        warn("PROSE_SIMD=", s, " not available on this build/CPU; ",
             "falling back to ", toString(best));
        return best;
    }
    return t->tier;
}

bool
simdTierAvailable(SimdTier tier)
{
    switch (tier) {
      case SimdTier::Scalar:
        return true;
      case SimdTier::Avx2:
#ifdef PROSE_KERNELS_HAVE_AVX2
        return cpu().avx2;
#else
        return false;
#endif
      case SimdTier::Avx512:
#ifdef PROSE_KERNELS_HAVE_AVX512
        return cpu().avx512;
#else
        return false;
#endif
    }
    return false;
}

SimdTier
bestSimdTier()
{
    if (simdTierAvailable(SimdTier::Avx512))
        return SimdTier::Avx512;
    if (simdTierAvailable(SimdTier::Avx2))
        return SimdTier::Avx2;
    return SimdTier::Scalar;
}

SimdTier
defaultSimdTier()
{
    static const SimdTier tier =
        simdTierFromSpec(std::getenv("PROSE_SIMD"));
    return tier;
}

const KernelSet &
kernelsForTier(SimdTier tier)
{
    if (!simdTierAvailable(tier)) {
        fatal("SIMD tier ", toString(tier),
              " is not available on this build/CPU");
    }
    switch (tier) {
      case SimdTier::Scalar:
        return scalarKernelSet();
      case SimdTier::Avx2:
#ifdef PROSE_KERNELS_HAVE_AVX2
        return avx2KernelSet();
#else
        break;
#endif
      case SimdTier::Avx512:
#ifdef PROSE_KERNELS_HAVE_AVX512
        return resolvedAvx512KernelSet();
#else
        break;
#endif
    }
    panic("unreachable SIMD tier");
}

const KernelSet &
activeKernels()
{
    const KernelSet *set =
        activeKernelSlot().load(std::memory_order_acquire);
    if (!set) {
        set = &kernelsForTier(defaultSimdTier());
        activeKernelSlot().store(set, std::memory_order_release);
    }
    return *set;
}

SimdTier
activeSimdTier()
{
    return parseSimdTier(activeKernels().name);
}

void
setActiveSimdTier(SimdTier tier)
{
    activeKernelSlot().store(&kernelsForTier(tier),
                             std::memory_order_release);
}

} // namespace prose::kernels
