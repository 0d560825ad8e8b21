/**
 * @file
 * The designated bit-level float comparison helpers.
 *
 * ProSE's determinism contract (docs/FAULT_MODEL.md, docs/PERF.md) is
 * stated in terms of bit-identical results, so the only float
 * comparisons the simulator itself is allowed to make are bit
 * comparisons — value comparison with ==/!= conflates +0/-0, loses NaN
 * payloads, and invites "close enough" drift between the fused and
 * reference paths. scripts/prose_lint.py enforces this: raw ==/!= on
 * float/double in src/numerics and src/systolic is a lint error
 * everywhere except this header and the Bfloat16 bit type.
 */

#ifndef PROSE_NUMERICS_FLOAT_BITS_HH
#define PROSE_NUMERICS_FLOAT_BITS_HH

#include <cstdint>
#include <cstring>

namespace prose {

/** Raw IEEE-754 bit pattern of a float. */
inline std::uint32_t
floatBits(float value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** Raw IEEE-754 bit pattern of a double. */
inline std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** Exact bit equality: distinguishes +0/-0 and compares NaN payloads. */
inline bool
bitsEqual(float a, float b)
{
    return floatBits(a) == floatBits(b);
}

/** Exact bit equality for doubles. */
inline bool
bitsEqual(double a, double b)
{
    return doubleBits(a) == doubleBits(b);
}

/** Bit equality over a contiguous range of floats. */
inline bool
bitsEqual(const float *a, const float *b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(*a)) == 0;
}

} // namespace prose

#endif // PROSE_NUMERICS_FLOAT_BITS_HH
