/**
 * @file
 * Closed-form cycle and traffic model for dataflow tasks on one ProSE
 * systolic array. The formulas reproduce the cycle-stepped SystolicArray
 * exactly (a property test enforces this); the discrete-event performance
 * simulator uses them so that full Protein-BERT-scale workloads cost
 * microseconds to evaluate instead of hours.
 *
 * Matmul tiling on an s x s output-stationary array: an M x K x N product
 * decomposes into ceil(M/s) x ceil(N/s) output tiles, each accumulated in
 * one pass over the full K dimension; a tile of r x c outputs takes
 * K + r + c - 2 wavefront cycles. SIMD rotation passes (MulAdd halves,
 * MatDiv, GELU, Exp, drain) each take `live columns` cycles per resident
 * tile, i.e. ceil(M/s) * N cycles over a full M x N matrix.
 *
 * Traffic model: with the partial-input buffer (Figure 11(d)) and the
 * per-type I/O buffers, operands stream across the link once per task
 * (the host L3 replays reuse); without it, the smaller of the two
 * operand-restream requirements is added, which is what makes the
 * buffer-less configurations bandwidth-bound in the DSE.
 */

#ifndef PROSE_SYSTOLIC_TIMING_MODEL_HH
#define PROSE_SYSTOLIC_TIMING_MODEL_HH

#include <cstdint>

#include "array_config.hh"
#include "trace/dataflow.hh"

namespace prose {

/** Cycle/traffic cost of one dataflow task on one array. */
struct TaskCost
{
    std::uint64_t matmulCycles = 0; ///< cycles at the matmul clock
    std::uint64_t simdCycles = 0;   ///< cycles at the SIMD clock
    std::uint64_t bytesIn = 0;      ///< host->accelerator stream bytes
    std::uint64_t bytesOut = 0;     ///< accelerator->host stream bytes
    /**
     * Output tiles the task streams through the array (summed over its
     * matmul ops). The streaming link model uses this as the task's
     * DMA chunk count: transfers and compute pipeline at tile
     * granularity, so the fill/drain ramp is one chunk's worth.
     */
    std::uint64_t tiles = 0;
    std::uint64_t hostSoftmaxElems = 0; ///< elements the host sum/divides
    double flops = 0.0;             ///< useful arithmetic in the task

    /** Pure compute time at the geometry's two clocks. */
    double computeSeconds(const ArrayGeometry &geometry) const;
};

/** Closed-form per-array cost model. */
class TimingModel
{
  public:
    /** @param partial_input_buffer model the Figure 11(d) reuse buffer */
    explicit TimingModel(bool partial_input_buffer = true);

    /** Total matmul-mode cycles for an m x k x n product on size s. */
    static std::uint64_t matmulCycles(std::uint64_t m, std::uint64_t k,
                                      std::uint64_t n, std::uint64_t s);

    /** Cycles of one full-matrix SIMD rotation pass (m x n on size s). */
    static std::uint64_t simdPassCycles(std::uint64_t m, std::uint64_t n,
                                        std::uint64_t s);

    /** Cost one dataflow task on the given array geometry. */
    TaskCost costTask(const DataflowTask &task,
                      const ArrayGeometry &geometry) const;

    bool partialInputBuffer() const { return partialInputBuffer_; }

  private:
    /** Extra operand restream bytes when the reuse buffer is absent. */
    static std::uint64_t restreamBytes(std::uint64_t m, std::uint64_t k,
                                       std::uint64_t n, std::uint64_t s);

    bool partialInputBuffer_;
};

} // namespace prose

#endif // PROSE_SYSTOLIC_TIMING_MODEL_HH
