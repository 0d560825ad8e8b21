/**
 * @file
 * Software bfloat16 (brain floating point): 1 sign bit, 8 exponent bits,
 * 7 mantissa bits — the top half of an IEEE-754 binary32.
 *
 * ProSE's systolic arrays multiply in bfloat16 and accumulate in fp32
 * (Section 3.2 / Figure 10(b)); this type provides the exact conversion
 * semantics the hardware uses: round-to-nearest-even on fp32 -> bf16, and
 * bit-exact widening bf16 -> fp32.
 */

#ifndef PROSE_NUMERICS_BFLOAT16_HH
#define PROSE_NUMERICS_BFLOAT16_HH

#include <cstdint>
#include <cstring>

namespace prose {

/** A 16-bit brain-float value. POD; safe to memcpy. */
class Bfloat16
{
  public:
    /** Zero-initialized. */
    constexpr Bfloat16() = default;

    /** Round a binary32 to the nearest bfloat16 (ties to even). */
    explicit Bfloat16(float value) : bits_(roundFromFloat(value)) {}

    /** Reinterpret raw storage bits as a bfloat16. */
    static constexpr Bfloat16
    fromBits(std::uint16_t bits)
    {
        Bfloat16 v;
        v.bits_ = bits;
        return v;
    }

    /** Exact widening conversion to binary32. */
    float toFloat() const;

    /** Raw storage bits. */
    constexpr std::uint16_t bits() const { return bits_; }

    /** Sign bit (1 = negative). */
    constexpr int signBit() const { return (bits_ >> 15) & 0x1; }

    /** Biased exponent field, 0..255. */
    constexpr int biasedExponent() const { return (bits_ >> 7) & 0xff; }

    /** Unbiased exponent (biased - 127); meaningless for zero/denormal. */
    constexpr int exponent() const { return biasedExponent() - 127; }

    /** Mantissa field, 7 bits. */
    constexpr int mantissa() const { return bits_ & 0x7f; }

    /** True for +0 or -0. */
    constexpr bool isZero() const { return (bits_ & 0x7fff) == 0; }

    /** True for either infinity. */
    constexpr bool
    isInf() const
    {
        return biasedExponent() == 0xff && mantissa() == 0;
    }

    /** True for any NaN encoding. */
    constexpr bool
    isNan() const
    {
        return biasedExponent() == 0xff && mantissa() != 0;
    }

    /** fp32 -> bf16 bits with round-to-nearest-even, NaN-preserving. */
    static std::uint16_t roundFromFloat(float value);

    bool operator<(Bfloat16 other) const
    {
        return toFloat() < other.toFloat();
    }

  private:
    std::uint16_t bits_ = 0;
};

// The conversions sit on the hot path of both functional-sim engines
// (every operand element is rounded at the array edge, every drained
// output is widened), so they are defined inline here.

inline float
Bfloat16::toFloat() const
{
    const std::uint32_t bits = static_cast<std::uint32_t>(bits_) << 16;
    float value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

inline std::uint16_t
Bfloat16::roundFromFloat(float value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));

    // NaN: keep the sign, force a quiet-NaN payload so the result stays
    // a NaN after truncation even if the payload's top bits were zero.
    if ((bits & 0x7f800000u) == 0x7f800000u && (bits & 0x007fffffu)) {
        return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);
    }

    // Round to nearest even on the 16 bits we are about to drop.
    const std::uint32_t rounding_bias = 0x7fffu + ((bits >> 16) & 1u);
    bits += rounding_bias;
    return static_cast<std::uint16_t>(bits >> 16);
}

/**
 * Truncate an fp32 value to bfloat16 by dropping the low 16 bits — the
 * semantics of the ProSE PE OUTPUT port, which taps accumulator bits
 * [31:16] directly (Figure 10(b)). No rounding is applied.
 */
inline Bfloat16
truncateToBf16(float value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return Bfloat16::fromBits(static_cast<std::uint16_t>(bits >> 16));
}

/** Round-trip helper: quantize an fp32 value through bfloat16. */
inline float
quantizeBf16(float value)
{
    return Bfloat16(value).toFloat();
}

/** Float-in/float-out wrapper around truncateToBf16. */
inline float
truncateBf16(float value)
{
    return truncateToBf16(value).toFloat();
}

/** @name Fault-model bit surgery
 * Single-event-upset helpers for the fault injector: flip or force one
 * storage bit of an fp32 accumulator. Bit 0 is the LSB;
 * fp32 bits [31:16] are the architecturally visible (bf16) half of a
 * ProSE accumulator.
 * @{ */

/** Flip one bit (0..31) of a binary32's storage. */
float flipFloatBit(float value, std::uint32_t bit);

/** Force one bit (0..31) of a binary32's storage to 0 or 1. */
float setFloatBit(float value, std::uint32_t bit, bool high);

/** @} */

} // namespace prose

#endif // PROSE_NUMERICS_BFLOAT16_HH
