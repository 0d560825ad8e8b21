#include "host_kernels.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "bfloat16.hh"
#include "kernels/kernel_dispatch.hh"

namespace prose {

void
parallelRows(std::size_t rows, unsigned workers,
             const std::function<void(std::size_t)> &fn)
{
    PROSE_ASSERT(workers >= 1, "need at least one host worker");
    if (workers == 1 || rows < 2 * workers) {
        for (std::size_t row = 0; row < rows; ++row)
            fn(row);
        return;
    }
    // Submit to the shared pool instead of spawning threads per call;
    // capping the chunk count models a host CPU with `workers` lanes.
    ThreadPool::global().parallelFor(
        rows, workers, [&](std::size_t begin, std::size_t end) {
            for (std::size_t row = begin; row < end; ++row)
                fn(row);
        });
}

void
hostSoftmaxDivide(Matrix &exp_values, unsigned workers)
{
    parallelRows(exp_values.rows(), workers, [&](std::size_t row) {
        double denom = 0.0;
        float *values = exp_values.row(row);
        for (std::size_t j = 0; j < exp_values.cols(); ++j)
            denom += values[j];
        PROSE_ASSERT(denom > 0.0, "softmax row summed to zero");
        const float inv = static_cast<float>(1.0 / denom);
        // Scale+quantize epilogue on the dispatched SIMD kernel; the
        // fp64 denominator sum above stays scalar (it is a sequential
        // reduction, not independent lanes).
        kernels::activeKernels().scaleQuantizeRow(values, inv,
                                                  exp_values.cols());
    });
}

} // namespace prose
