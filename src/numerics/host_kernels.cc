#include "host_kernels.hh"

#include <cmath>

#include "common/logging.hh"
#include "bfloat16.hh"
#include "kernels/kernel_dispatch.hh"

namespace prose {

void
hostSoftmaxDivide(Matrix &exp_values)
{
    for (std::size_t row = 0; row < exp_values.rows(); ++row) {
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
    }
}

} // namespace prose
