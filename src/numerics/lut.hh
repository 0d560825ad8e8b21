/**
 * @file
 * Two-level indexed lookup tables for the ProSE special-function units.
 *
 * Section 3.2 / Figures 13-14: GELU and Exp are evaluated in one cycle by
 * a two-level LUT attached to each SIMD ALU. The first level is indexed by
 * the bfloat16 (sign, exponent) pair and selects a 128-entry second-level
 * table indexed by the 7-bit mantissa. The table only stores outputs for a
 * window of exponents; inputs outside the window are handled by cheap
 * boundary policies:
 *
 *  - GELU window [-4, 3]: below the window the output is approximated as
 *    0; above it, GELU(x) ~ x for positive x and ~ 0 for negative x.
 *    8 exponents x 2 signs x 128 mantissas x 2 bytes = 4 KiB.
 *  - Exp window [-6, 5]: below the window exp(x) ~ 1; above it the output
 *    saturates (largest-finite bfloat16 for positive inputs, 0 for
 *    negative). 12 x 2 x 128 x 2 bytes = 6 KiB.
 *
 * These sizes match the paper's "4 KB and 6 KB respectively".
 *
 * The paper's two tables are process-wide constants (geluLut(), expLut()),
 * built on first use and read by every array and model; only the window
 * ablation builds tables of its own.
 */

#ifndef PROSE_NUMERICS_LUT_HH
#define PROSE_NUMERICS_LUT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bfloat16.hh"

namespace prose {

/**
 * A hardware-faithful two-level special-function LUT over bfloat16.
 * Construction precomputes every in-window entry by rounding the reference
 * function, then the flat form; lookup() touches exactly one first-level
 * and one second-level entry, modelling the single-cycle indexed read.
 */
class TwoLevelLut
{
  public:
    /** What to produce for inputs whose exponent is outside the window. */
    enum class BoundaryPolicy
    {
        GeluLike, ///< below window -> 0; above -> x if x>0 else 0
        ExpLike,  ///< below window -> 1; above -> saturate (+max / 0)
    };

    /**
     * Build a table for `fn` covering unbiased exponents
     * [exp_lo, exp_hi] for both signs.
     *
     * @param name human-readable unit name ("GELU", "Exp")
     * @param fn reference function the table approximates
     * @param exp_lo lowest unbiased exponent stored
     * @param exp_hi highest unbiased exponent stored
     * @param policy out-of-window behaviour
     */
    TwoLevelLut(std::string name, float (*fn)(float), int exp_lo,
                int exp_hi, BoundaryPolicy policy);

    /** Single-cycle lookup. Denormals and zeros take the below-window
     *  path; NaN propagates. */
    Bfloat16 lookup(Bfloat16 x) const;

    /** Convenience float-in/float-out wrapper (quantizes the input). */
    float lookupFloat(float x) const;

    /** Total second-level storage in bytes (the paper's 4 KB / 6 KB). */
    std::size_t storageBytes() const;

    /**
     * The two-level lookup flattened into a 65536-entry table mapping
     * every bf16 bit pattern to the fp32 bit pattern of
     * lookup(pattern).toFloat(). Built once, at construction, by
     * evaluating lookup() on each input, so a flat read is bit-exact
     * with the two-level read — including NaNs, denormals, and the
     * boundary policies. The fast-forward engine and the model's
     * sweeps gather from it (kernels::KernelSet::lutRow); the stepped
     * wavefront keeps the hardware-faithful two-level lookup().
     */
    const std::vector<std::uint32_t> &flatFloatBits() const
    {
        return flat_;
    }

    /** Number of second-level tables (sign x exponent combinations). */
    std::size_t segmentCount() const { return segments_.size(); }

    const std::string &name() const { return name_; }
    int exponentLow() const { return expLo_; }
    int exponentHigh() const { return expHi_; }

  private:
    /** One second-level table: 128 bf16 outputs for a (sign, exp) pair. */
    struct Segment
    {
        std::vector<std::uint16_t> entries; // 128 bf16 bit patterns
    };

    /** First-level index for a (sign, unbiased exponent) pair. */
    std::size_t segmentIndex(int sign_bit, int exponent) const;

    /** Out-of-window result per the boundary policy. */
    Bfloat16 boundaryValue(Bfloat16 x, bool below_window) const;

    std::string name_;
    int expLo_;
    int expHi_;
    BoundaryPolicy policy_;
    std::vector<Segment> segments_;
    std::vector<std::uint32_t> flat_; ///< see flatFloatBits()
};

/** The paper's GELU unit (window [-4, 3]), shared by the process. */
const TwoLevelLut &geluLut();

/** The paper's Exp unit (window [-6, 5]), shared by the process. */
const TwoLevelLut &expLut();

} // namespace prose

#endif // PROSE_NUMERICS_LUT_HH
