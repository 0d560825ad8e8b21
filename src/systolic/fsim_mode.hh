/**
 * @file
 * Execution-engine selection for the functional simulation of the
 * systolic arrays. The cycle-stepped wavefront model is the reference;
 * the fast-forward engine computes the same register file and the same
 * cycle/stall/MAC counters for every operation — closed form under
 * ideal stream-buffer supply, an O(1)-per-cycle gate replay under
 * fractional rates — which is what makes full-model
 * functional runs, LUT-accuracy sweeps, and validated DSE routinely
 * affordable. Fault injection and ABFT run on either engine.
 *
 * The mode can be chosen per array / per simulator through the API, or
 * process-wide through the PROSE_FSIM_MODE environment variable
 * ("fast", "stepped", "validate"). `validate` runs BOTH engines on
 * every operation and panics unless the register file, cycle counters,
 * stall counters, and stream-buffer states agree bit-for-bit.
 */

#ifndef PROSE_SYSTOLIC_FSIM_MODE_HH
#define PROSE_SYSTOLIC_FSIM_MODE_HH

namespace prose {

/** Functional-simulation execution engine. */
enum class FsimMode
{
    Fast,     ///< fast-forward GEMM plus stream-buffer gate replay
    Stepped,  ///< the cycle-stepped reference wavefront machine
    Validate, ///< run both engines, assert bit/cycle/stall equality
};

const char *toString(FsimMode mode);

/**
 * Process-wide default: PROSE_FSIM_MODE if set (invalid values warn and
 * fall back), otherwise FsimMode::Fast. Read once and cached.
 */
FsimMode defaultFsimMode();

} // namespace prose

#endif // PROSE_SYSTOLIC_FSIM_MODE_HH
