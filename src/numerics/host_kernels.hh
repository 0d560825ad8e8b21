/**
 * @file
 * Real host-side kernels — the CPU half of the co-designed system. The
 * HostModel *times* the host work; these kernels *perform* it, so the
 * functional path (FunctionalSimulator + BertModel) runs the same
 * softmax sum/divide the deployed host would, optionally
 * parallelized across the shared ThreadPool the way the paper's Xeon
 * streams softmax batches.
 */

#ifndef PROSE_NUMERICS_HOST_KERNELS_HH
#define PROSE_NUMERICS_HOST_KERNELS_HH

#include <cstdint>
#include <functional>

#include "matrix.hh"

namespace prose {

/**
 * Softmax sum/divide over accelerator-produced exp values: per row,
 * sum in fp64 and multiply by the reciprocal, re-quantizing each
 * probability to bfloat16 before it streams back to the accelerator
 * (Dataflow 3's host trip).
 *
 * @param exp_values rows of exp(score) values (modified in place)
 * @param workers host threads to split the rows across (>= 1)
 */
void hostSoftmaxDivide(Matrix &exp_values, unsigned workers = 1);

/**
 * Row-parallel driver behind hostSoftmaxDivide: runs fn(row_index) over
 * [0, rows) on the shared ThreadPool, with concurrency capped at
 * `workers` lanes. Exposed for other row-wise host work.
 */
void parallelRows(std::size_t rows, unsigned workers,
                  const std::function<void(std::size_t)> &fn);

} // namespace prose

#endif // PROSE_NUMERICS_HOST_KERNELS_HH
