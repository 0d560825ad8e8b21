/** @file Tests for the real host-side softmax divide kernel. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "numerics/bfloat16.hh"
#include "numerics/host_kernels.hh"

namespace prose {
namespace {

Matrix
positiveMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            m(i, j) = static_cast<float>(rng.uniform(0.01, 3.0));
    return m;
}

TEST(HostKernels, SoftmaxRowsSumToOne)
{
    Rng rng(1);
    Matrix exp_values = positiveMatrix(rng, 12, 33);
    hostSoftmaxDivide(exp_values);
    for (std::size_t i = 0; i < exp_values.rows(); ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < exp_values.cols(); ++j)
            sum += exp_values(i, j);
        EXPECT_NEAR(sum, 1.0, 0.02); // bf16 re-quantization slack
    }
}

TEST(HostKernels, SoftmaxResultsAreBf16)
{
    Rng rng(2);
    Matrix exp_values = positiveMatrix(rng, 4, 16);
    hostSoftmaxDivide(exp_values);
    for (std::size_t i = 0; i < exp_values.rows(); ++i)
        for (std::size_t j = 0; j < exp_values.cols(); ++j)
            EXPECT_EQ(exp_values(i, j), quantizeBf16(exp_values(i, j)));
}

TEST(HostKernelsDeathTest, ZeroSoftmaxRowPanics)
{
    Matrix zeros(2, 4, 0.0f);
    EXPECT_DEATH(hostSoftmaxDivide(zeros), "summed to zero");
}

} // namespace
} // namespace prose
