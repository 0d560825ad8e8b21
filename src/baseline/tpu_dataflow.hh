/**
 * @file
 * Step-level comparison of ProSE's local dataflow against the TPUv2's
 * global dataflow (Figures 11 and 12). The paper walks a MatMul and a
 * MulAdd through both microarchitectures; this module counts the
 * microarchitectural steps and, more importantly, the storage traffic
 * each primitive generates:
 *
 *  - TPUv2 (weight-stationary + Unified Buffer): weights preload from
 *    the weight FIFO; activations and every intermediate round-trip the
 *    UB ("global dataflow"). A MulAdd costs two to three full trips.
 *  - ProSE (output-stationary streaming): operands stream from the
 *    host; intermediates never leave the PE accumulators ("local
 *    dataflow"). A MulAdd is one trip.
 *
 * An illustrative energy roll-up (Horowitz-style per-access costs)
 * quantifies why eliminating the UB buys the Figure 19 efficiency gap.
 */

#ifndef PROSE_BASELINE_TPU_DATAFLOW_HH
#define PROSE_BASELINE_TPU_DATAFLOW_HH

#include <cstdint>

namespace prose {

/** Traffic and step counts of executing one primitive. */
struct DataflowTrip
{
    /** Microarchitectural operations (the circled steps). */
    std::uint64_t steps = 0;
    /** Global-dataflow trips (host->...->storage round trips). */
    std::uint64_t trips = 0;
    /** Unified Buffer read+write bytes (TPU only; 0 on ProSE). */
    std::uint64_t unifiedBufferBytes = 0;
    /** Weight FIFO / DDR bytes (TPU only). */
    std::uint64_t weightBytes = 0;
    /** Host <-> accelerator stream bytes. */
    std::uint64_t hostStreamBytes = 0;

    /**
     * Illustrative data-movement energy (joules): UB accesses at a
     * large-SRAM cost, weight-FIFO/DDR and host-link transfers at
     * off-chip costs, using Horowitz-survey per-byte figures. Intended
     * for ratio comparisons, not absolute power claims.
     */
    double movementEnergyJoules() const;
};

/** C = A(m x k) x B(k x n) on a TPUv2-style s x s MXU (Figure 11(a)). */
DataflowTrip tpuMatMulTrip(std::uint64_t m, std::uint64_t k,
                           std::uint64_t n, std::uint64_t s = 128);

/**
 * The same MatMul on a ProSE s x s array (Figure 11(b)/(d)).
 * @param partial_input_buffer model the Figure 11(d) A-reuse buffer
 */
DataflowTrip proseMatMulTrip(std::uint64_t m, std::uint64_t k,
                             std::uint64_t n, std::uint64_t s,
                             bool partial_input_buffer = true);

/** C = a*A + B elementwise on the TPUv2 (Figure 12(a)): two to three
 *  global trips through Normalization/Accumulation and the UB. */
DataflowTrip tpuMulAddTrip(std::uint64_t m, std::uint64_t n,
                           std::uint64_t s = 128);

/** The same MulAdd fused into ProSE's simd mode (Figure 12(b)). */
DataflowTrip proseMulAddTrip(std::uint64_t m, std::uint64_t n,
                             std::uint64_t s);

} // namespace prose

#endif // PROSE_BASELINE_TPU_DATAFLOW_HH
