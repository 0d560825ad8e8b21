/**
 * @file
 * Static description of one ProSE systolic array: its size, which special
 * function units its SIMD column carries, and the clocks it runs at.
 *
 * The paper's three types (Section 3.1):
 *   M-Type: MatMul + SIMD ALU ops               (64x64)
 *   G-Type: MatMul + SIMD + GELU LUTs           (32x32 or 16x16)
 *   E-Type: MatMul + SIMD + Exp LUTs            (16x16 or 32x32)
 *
 * Clocks (Section 4.1): matmul mode is double-pumped at 1.6 GHz; SIMD and
 * special-function passes run at 800 MHz.
 */

#ifndef PROSE_SYSTOLIC_ARRAY_CONFIG_HH
#define PROSE_SYSTOLIC_ARRAY_CONFIG_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/units.hh"

namespace prose {

/** Heterogeneous systolic array types. */
enum class ArrayType
{
    M, ///< matmul + SIMD
    G, ///< matmul + SIMD + GELU
    E, ///< matmul + SIMD + Exp
};

/** Every array type, in pool order: M, G, E. */
inline constexpr std::array<ArrayType, 3> kArrayTypes = {
    ArrayType::M, ArrayType::G, ArrayType::E
};

/** Dense index (0..2) of an array type: its pool slot in kArrayTypes. */
constexpr std::size_t
typeIndex(ArrayType type)
{
    return static_cast<std::size_t>(type);
}

const char *toString(ArrayType type);

/** Geometry and capability of one array instance. */
struct ArrayGeometry
{
    ArrayType type = ArrayType::M;
    std::uint32_t dim = 64;       ///< n for an n x n array
    bool hasGelu = false;         ///< GELU LUT per SIMD ALU
    bool hasExp = false;          ///< Exp LUT per SIMD ALU
    std::uint32_t bufferDepth = 8; ///< streaming-buffer depth (entries)

    /** Double-pumped matmul clock (Hz). */
    double matmulClockHz = ghz(1.6);
    /** SIMD / special-function clock (Hz). */
    double simdClockHz = mhz(800);

    /** Processing elements in this array. */
    std::uint64_t peCount() const
    {
        return static_cast<std::uint64_t>(dim) * dim;
    }

    /** Construct the paper's M-Type (64x64). */
    static ArrayGeometry mType(std::uint32_t dim = 64);
    /** Construct a G-Type of the given size. */
    static ArrayGeometry gType(std::uint32_t dim = 32);
    /** Construct an E-Type of the given size. */
    static ArrayGeometry eType(std::uint32_t dim = 16);
    /** Construct the given type at the given size. */
    static ArrayGeometry ofType(ArrayType type, std::uint32_t dim);

    std::string describe() const;
};

} // namespace prose

#endif // PROSE_SYSTOLIC_ARRAY_CONFIG_HH
