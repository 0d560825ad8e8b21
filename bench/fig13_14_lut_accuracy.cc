/**
 * @file
 * Figures 13/14: the GELU and Exp lookup-table truncation windows. For
 * every bfloat16 exponent bucket, reports whether the bucket is stored
 * in the table or handled by a boundary policy, and the worst-case
 * absolute/relative error against the reference function.
 */

#include <cmath>

#include "bench_util.hh"
#include "common/logging.hh"
#include "numerics/activations.hh"
#include "numerics/lut.hh"
#include "systolic/systolic_array.hh"

using namespace prose;
using namespace prose::bench;

namespace {

void
sweepLut(const TwoLevelLut &lut, float (*reference)(float),
         bool relative)
{
    Table table({ "exponent", "|x| range", "mode", "max-abs-err",
                  "max-rel-err" });
    for (int e = -8; e <= 7; ++e) {
        double worst_abs = 0.0, worst_rel = 0.0;
        for (int sign = 0; sign <= 1; ++sign) {
            for (int m = 0; m < 128; ++m) {
                const std::uint16_t bits = static_cast<std::uint16_t>(
                    (sign << 15) | ((e + 127) << 7) | m);
                const float x = Bfloat16::fromBits(bits).toFloat();
                const float got = lut.lookupFloat(x);
                const float ref = reference(x);
                if (!std::isfinite(ref)) {
                    // exp overflows fp32 near the top of the window;
                    // the unit saturates by design (Figure 14).
                    continue;
                }
                const double err = std::fabs(got - ref);
                worst_abs = std::max(worst_abs, err);
                if (std::fabs(ref) > 1e-30)
                    worst_rel = std::max(
                        worst_rel, err / std::fabs(ref));
            }
        }
        const bool in_window =
            e >= lut.exponentLow() && e <= lut.exponentHigh();
        const double lo = std::ldexp(1.0, e);
        table.addRow({ std::to_string(e),
                       "[" + Table::fmt(lo, 4) + ", " +
                           Table::fmt(2 * lo, 4) + ")",
                       in_window ? "LUT" : "boundary",
                       Table::fmt(worst_abs, 5),
                       relative ? Table::fmt(worst_rel, 5) : "-" });
    }
    table.print(std::cout);
}

/**
 * Drive every in-window bf16 value through the SIMD column of an actual
 * array (matmul against [[1]] to latch x into the accumulators, one
 * special-function rotation, drain) and check the drained outputs match
 * the direct table lookup bit for bit. Honors PROSE_FSIM_MODE, so
 * `validate` cross-checks the fast and stepped engines along the way.
 */
void
inArraySweep(const TwoLevelLut &lut, ArrayGeometry geometry, SimdOp op)
{
    SystolicArray array(geometry);
    const Matrix one(1, 1, 1.0f);

    std::uint64_t checked = 0;
    for (int e = lut.exponentLow(); e <= lut.exponentHigh(); ++e) {
        for (int sign = 0; sign <= 1; ++sign) {
            // One tile per half-bucket: 128 mantissas per column chunk.
            for (int m0 = 0; m0 < 128;
                 m0 += static_cast<int>(geometry.dim)) {
                const std::size_t rows =
                    std::min<std::size_t>(geometry.dim, 128 - m0);
                Matrix xs(rows, 1);
                for (std::size_t r = 0; r < rows; ++r) {
                    const std::uint16_t bits =
                        static_cast<std::uint16_t>(
                            (sign << 15) | ((e + 127) << 7) |
                            (m0 + static_cast<int>(r)));
                    xs(r, 0) = Bfloat16::fromBits(bits).toFloat();
                }
                array.matmulTile(xs, one);
                array.simdSpecial(op);
                Matrix out;
                array.drain(out);
                for (std::size_t r = 0; r < rows; ++r) {
                    const float want =
                        truncateBf16(lut.lookupFloat(xs(r, 0)));
                    if (out(r, 0) != want &&
                        !(std::isnan(out(r, 0)) && std::isnan(want)))
                        fatal("in-array ", toString(op), "(", xs(r, 0),
                              ") = ", out(r, 0), ", table says ", want);
                    ++checked;
                }
            }
        }
    }
    std::cout << "  " << toString(op) << " on a " << geometry.dim << "x"
              << geometry.dim << " array (" << toString(array.mode())
              << " engine): " << checked
              << " in-window bf16 inputs, all bit-identical to the "
                 "direct lookup\n";
}

} // namespace

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    const TwoLevelLut &gelu = geluLut();
    const TwoLevelLut &exp = expLut();

    banner("Figure 13: GELU LUT (window [-4, 3], " +
           std::to_string(gelu.storageBytes()) + " bytes)");
    sweepLut(gelu, &geluTanh, false);

    banner("Figure 14: Exp LUT (window [-6, 5], " +
           std::to_string(exp.storageBytes()) + " bytes)");
    sweepLut(exp, &expRef, true);

    std::cout << "\nPaper reference: GELU computed only for exponents "
                 "[-4, 3] (4 KB of tables);\nExp for [-6, 5] (6 KB); "
                 "outside the windows the boundary approximations\n(0 / "
                 "linear for GELU; 1 / saturate for Exp) preserve model "
                 "accuracy.\n";

    banner(std::string("In-array lookup check (PROSE_FSIM_MODE=") +
           toString(defaultFsimMode()) + ")");
    inArraySweep(gelu, ArrayGeometry::gType(), SimdOp::Gelu);
    inArraySweep(exp, ArrayGeometry::eType(), SimdOp::Exp);
    return 0;
}
