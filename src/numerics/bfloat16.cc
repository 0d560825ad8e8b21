#include "bfloat16.hh"

#include <cstring>

namespace prose {

// roundFromFloat / toFloat / truncateToBf16 are inline in the header:
// they dominate the functional-sim hot paths.

namespace {

std::uint32_t
floatBits(float value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

float
bitsToFloat(std::uint32_t bits)
{
    float value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

} // namespace

Bfloat16
Bfloat16::operator-() const
{
    return fromBits(static_cast<std::uint16_t>(bits_ ^ 0x8000u));
}

Bfloat16
Bfloat16::operator+(Bfloat16 other) const
{
    return Bfloat16(toFloat() + other.toFloat());
}

Bfloat16
Bfloat16::operator-(Bfloat16 other) const
{
    return Bfloat16(toFloat() - other.toFloat());
}

Bfloat16
Bfloat16::operator*(Bfloat16 other) const
{
    return Bfloat16(toFloat() * other.toFloat());
}

bool
Bfloat16::operator==(Bfloat16 other) const
{
    if (isZero() && other.isZero())
        return true;
    if (isNan() || other.isNan())
        return false;
    return bits_ == other.bits_;
}

std::ostream &
operator<<(std::ostream &os, Bfloat16 v)
{
    return os << v.toFloat();
}

float
flipFloatBit(float value, std::uint32_t bit)
{
    return bitsToFloat(floatBits(value) ^ (1u << (bit & 31u)));
}

float
setFloatBit(float value, std::uint32_t bit, bool high)
{
    const std::uint32_t mask = 1u << (bit & 31u);
    const std::uint32_t bits = floatBits(value);
    return bitsToFloat(high ? bits | mask : bits & ~mask);
}

Bfloat16
flipBf16Bit(Bfloat16 value, std::uint32_t bit)
{
    return Bfloat16::fromBits(static_cast<std::uint16_t>(
        value.bits() ^ (1u << (bit & 15u))));
}

} // namespace prose
