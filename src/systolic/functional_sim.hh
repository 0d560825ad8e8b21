/**
 * @file
 * Functional simulator: executes whole ProSE dataflows with real data on
 * the register-accurate cycle-stepped arrays — the repo's analogue of
 * the paper's Verilog functional simulation (Figure 15, left path).
 *
 * Each dataflow is run exactly as the hardware would: the operand
 * matrices are tiled over the array, each output tile accumulates across
 * the full k dimension in the PE accumulators, the fused SIMD passes
 * (MulAdd halves, GELU/Exp) run in simd mode on the resident tile, and
 * results leave through the truncating OUTPUT port. Dataflow 3 routes
 * the Exp results through a host-side softmax sum/divide between its two
 * batched matmuls, exactly like the paper's CPU-assisted softmax.
 */

#ifndef PROSE_SYSTOLIC_FUNCTIONAL_SIM_HH
#define PROSE_SYSTOLIC_FUNCTIONAL_SIM_HH

#include <cstdint>
#include <vector>

#include "fault/abft.hh"
#include "systolic_array.hh"

namespace prose {

/** Executes dataflows on one array of each type. */
class FunctionalSimulator
{
  public:
    /** Default: the paper's array sizes (M 64, G 32, E 16). */
    FunctionalSimulator(ArrayGeometry m_geometry = ArrayGeometry::mType(),
                        ArrayGeometry g_geometry = ArrayGeometry::gType(),
                        ArrayGeometry e_geometry = ArrayGeometry::eType());

    /**
     * Dataflow 1 on the M-Type array: C = alpha * (A x B) + addend.
     *
     * @param a m x k operand (streams from the west)
     * @param b k x n operand (streams from the north)
     * @param alpha broadcast scalar of the MulAdd's MUL pass
     * @param addend nullptr to skip the ADD pass; otherwise a 1 x n row
     *        (broadcast bias) or an m x n matrix (residual)
     */
    Matrix dataflow1(const Matrix &a, const Matrix &b, float alpha,
                     const Matrix *addend);

    /** Dataflow 2 on the G-Type array: GELU(alpha * (A x B) + addend). */
    Matrix dataflow2(const Matrix &a, const Matrix &b, float alpha,
                     const Matrix *addend);

    /**
     * Dataflow 3 on the E-Type array: per batch element,
     * P = hostSoftmax(Exp((Q x K^T) * inv_scale)), out = P x V.
     *
     * @param q batch of m x dk query matrices
     * @param k batch of m x dk key matrices (transposed internally)
     * @param v batch of m x dk value matrices
     * @param inv_scale the MatDiv reciprocal (1/sqrt(dk))
     * @return batch of m x dk context matrices
     */
    std::vector<Matrix> dataflow3(const std::vector<Matrix> &q,
                                  const std::vector<Matrix> &k,
                                  const std::vector<Matrix> &v,
                                  float inv_scale);

    /** @name Aggregate statistics across all arrays @{ */
    std::uint64_t matmulCycles() const;
    std::uint64_t simdCycles() const;
    std::uint64_t macCount() const;
    /** @} */

    SystolicArray &mArray() { return mArray_; }
    SystolicArray &gArray() { return gArray_; }

    /** @name Fault injection and ABFT @{ */

    /**
     * Attach a fault injector to all three arrays (sites "M0", "G0",
     * "E0"); nullptr detaches. Without an injector the simulator is
     * bit-identical to a fault-free build.
     */
    void setFaultInjector(FaultInjector *injector);

    /**
     * Enable/disable Huang-Abraham ABFT checking of every matmul tile
     * and reset abftStats(). Located accumulators are repaired in place
     * before the fused SIMD passes consume them.
     */
    void setAbft(AbftOptions options);

    /** Run-level detection/location/correction accounting. */
    const AbftStats &abftStats() const { return abft_.stats(); }

    /** @} */

    /** @name Execution-engine selection @{ */

    /**
     * Select the functional-simulation engine for all arrays (defaults
     * to PROSE_FSIM_MODE). Fault-injected and ABFT-checked runs use it
     * too: corruption and checksums act on the finished tile, whichever
     * engine computed it. No array overrides it.
     */
    void setMode(FsimMode mode);

    /** The requested engine. */
    FsimMode mode() const { return mArray_.mode(); }

    /** @} */

  private:
    /**
     * Tile-loop core: run matmul + fused SIMD passes on `array`.
     * special == SimdOp::Gelu / Exp adds the LUT pass; any other value
     * skips it.
     */
    Matrix runFused(SystolicArray &array, const Matrix &a,
                    const Matrix &b, float alpha, const Matrix *addend,
                    bool apply_special, SimdOp special);

    SystolicArray mArray_;
    SystolicArray gArray_;
    SystolicArray eArray_;
    bool abftEnabled_ = false;
    AbftChecker abft_;
};

} // namespace prose

#endif // PROSE_SYSTOLIC_FUNCTIONAL_SIM_HH
