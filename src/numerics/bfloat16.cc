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

} // namespace prose
