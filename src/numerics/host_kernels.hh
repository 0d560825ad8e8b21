/**
 * @file
 * Real host-side kernels — the CPU half of the co-designed system. The
 * HostModel *times* the host work; these kernels *perform* it, so the
 * functional path (FunctionalSimulator + BertModel) runs the same
 * softmax sum/divide the deployed host would.
 */

#ifndef PROSE_NUMERICS_HOST_KERNELS_HH
#define PROSE_NUMERICS_HOST_KERNELS_HH

#include "matrix.hh"

namespace prose {

/**
 * Softmax sum/divide over accelerator-produced exp values: per row,
 * sum in fp64 and multiply by the reciprocal, re-quantizing each
 * probability to bfloat16 before it streams back to the accelerator
 * (Dataflow 3's host trip).
 *
 * @param exp_values rows of exp(score) values (modified in place)
 */
void hostSoftmaxDivide(Matrix &exp_values);

} // namespace prose

#endif // PROSE_NUMERICS_HOST_KERNELS_HH
