#include "lut.hh"

#include <cmath>
#include <cstring>

#include "activations.hh"
#include "common/logging.hh"

namespace prose {

TwoLevelLut::TwoLevelLut(std::string name, float (*fn)(float), int exp_lo,
                         int exp_hi, BoundaryPolicy policy)
    : name_(std::move(name)), expLo_(exp_lo), expHi_(exp_hi),
      policy_(policy)
{
    PROSE_ASSERT(expLo_ <= expHi_, "LUT exponent window inverted");
    const int window = expHi_ - expLo_ + 1;
    segments_.resize(static_cast<std::size_t>(window) * 2);

    // Precompute: for every (sign, exponent, mantissa) in the window,
    // evaluate the reference function on the exact bf16 input value and
    // round the output back to bf16 — exactly what tablegen for the
    // hardware LUT would produce.
    for (int sign = 0; sign <= 1; ++sign) {
        for (int e = expLo_; e <= expHi_; ++e) {
            Segment &seg = segments_[segmentIndex(sign, e)];
            seg.entries.resize(128);
            const int biased = e + 127;
            for (int m = 0; m < 128; ++m) {
                const std::uint16_t bits = static_cast<std::uint16_t>(
                    (sign << 15) | (biased << 7) | m);
                const float x = Bfloat16::fromBits(bits).toFloat();
                seg.entries[static_cast<std::size_t>(m)] =
                    Bfloat16(fn(x)).bits();
            }
        }
    }

    flat_.resize(65536);
    for (std::uint32_t bits = 0; bits < 65536; ++bits) {
        const float out =
            lookup(Bfloat16::fromBits(static_cast<std::uint16_t>(bits)))
                .toFloat();
        std::memcpy(&flat_[bits], &out, sizeof(out));
    }
}

std::size_t
TwoLevelLut::segmentIndex(int sign_bit, int exponent) const
{
    const auto offset = static_cast<std::size_t>(exponent - expLo_);
    const auto span = static_cast<std::size_t>(expHi_ - expLo_ + 1);
    return static_cast<std::size_t>(sign_bit) * span + offset;
}

Bfloat16
TwoLevelLut::boundaryValue(Bfloat16 x, bool below_window) const
{
    switch (policy_) {
      case BoundaryPolicy::GeluLike:
        if (below_window) {
            // Tiny |x|: the paper approximates the output as 0.
            return Bfloat16(0.0f);
        }
        // Huge |x|: GELU(x) ~ x for x > 0 and ~ 0 for x < 0.
        return x.signBit() ? Bfloat16(0.0f) : x;
      case BoundaryPolicy::ExpLike:
        if (below_window) {
            // exp(x) ~ 1 for tiny |x|.
            return Bfloat16(1.0f);
        }
        // Saturate: exp of a large positive input clamps to the largest
        // finite bfloat16; a large negative input flushes to 0.
        if (x.signBit())
            return Bfloat16(0.0f);
        return Bfloat16::fromBits(0x7f7f); // largest finite bf16
    }
    panic("unreachable boundary policy");
}

Bfloat16
TwoLevelLut::lookup(Bfloat16 x) const
{
    if (x.isNan())
        return x;
    // Zeros and denormals (biased exponent 0) sit below any window we
    // support, as do small normals; infinities sit above.
    if (x.isZero() || x.biasedExponent() == 0)
        return boundaryValue(x, true);
    if (x.isInf())
        return boundaryValue(x, false);

    const int e = x.exponent();
    if (e < expLo_)
        return boundaryValue(x, true);
    if (e > expHi_)
        return boundaryValue(x, false);

    const Segment &seg = segments_[segmentIndex(x.signBit(), e)];
    return Bfloat16::fromBits(
        seg.entries[static_cast<std::size_t>(x.mantissa())]);
}

float
TwoLevelLut::lookupFloat(float x) const
{
    return lookup(Bfloat16(x)).toFloat();
}

std::size_t
TwoLevelLut::storageBytes() const
{
    std::size_t total = 0;
    for (const auto &seg : segments_)
        total += seg.entries.size() * sizeof(std::uint16_t);
    return total;
}

const TwoLevelLut &
geluLut()
{
    static const TwoLevelLut lut("GELU", &geluTanh, -4, 3,
                                 TwoLevelLut::BoundaryPolicy::GeluLike);
    return lut;
}

const TwoLevelLut &
expLut()
{
    static const TwoLevelLut lut("Exp", &expRef, -6, 5,
                                 TwoLevelLut::BoundaryPolicy::ExpLike);
    return lut;
}

} // namespace prose
