/** @file Integration tests: real model forward -> trace -> dataflows ->
 *  cycle-stepped execution vs the fast performance model. */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/perf_sim.hh"
#include "model/bert_model.hh"
#include "model/tokenizer.hh"
#include "protein/fasta.hh"
#include "systolic/systolic_array.hh"
#include "systolic/timing_model.hh"

namespace prose {
namespace {

TEST(EndToEnd, RealForwardDrivesThePerfSim)
{
    // Run actual math through the tiny model, capture the trace, and
    // feed the exact same trace through the DES — the full Figure 15
    // pipeline minus Chisel.
    const BertConfig config = BertConfig::tiny();
    const BertModel model(config, 42);
    AminoTokenizer tok;
    Rng rng(9);
    std::vector<std::vector<std::uint32_t>> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(tok.encode(randomProtein(rng, 30), 32));

    OpTrace trace;
    model.forward(batch, NumericsMode::Bf16Lut, &trace);
    ASSERT_FALSE(trace.empty());

    const auto tasks = DataflowBuilder{}.build(trace);
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport report = sim.runTasks({ tasks });
    EXPECT_GT(report.makespan, 0.0);
    EXPECT_NEAR(report.totalFlops, trace.totalFlops(), 1.0);
}

TEST(EndToEnd, FusedDataflow1OnTheCycleSteppedArray)
{
    // Execute a full (tiled) Dataflow 1 on the register-accurate array
    // and compare against the reference math with hardware numerics:
    // C = (A x B) + bias, intermediates never leaving the accumulators.
    Rng rng(3);
    const std::size_t m = 20, k = 33, n = 14, s = 8;
    Matrix a(m, k), b(k, n), bias_row(1, n);
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    bias_row.fillGaussian(rng, 0.0f, 1.0f);

    SystolicArray array(ArrayGeometry::mType(s));
    Matrix result(m, n);
    for (std::size_t tm = 0; tm < m; tm += s) {
        const std::size_t rows = std::min(s, m - tm);
        for (std::size_t tn = 0; tn < n; tn += s) {
            const std::size_t cols = std::min(s, n - tn);
            // One output tile: full-k accumulation, then fused MulAdd.
            Matrix a_tile(rows, k), b_tile(k, cols);
            for (std::size_t i = 0; i < rows; ++i)
                for (std::size_t j = 0; j < k; ++j)
                    a_tile(i, j) = a(tm + i, j);
            for (std::size_t i = 0; i < k; ++i)
                for (std::size_t j = 0; j < cols; ++j)
                    b_tile(i, j) = b(i, tn + j);
            array.matmulTile(a_tile, b_tile);

            Matrix bias_tile(rows, cols);
            for (std::size_t i = 0; i < rows; ++i)
                for (std::size_t j = 0; j < cols; ++j)
                    bias_tile(i, j) = bias_row(0, tn + j);
            array.simdScalar(SimdOp::MulScalar, 1.0f);
            array.simdVector(SimdOp::AddVector, bias_tile);

            Matrix out;
            array.drain(out);
            for (std::size_t i = 0; i < rows; ++i)
                for (std::size_t j = 0; j < cols; ++j)
                    result(tm + i, tn + j) = out(i, j);
        }
    }

    // Reference with the same numerics.
    const Matrix mm = matmulBf16(a, b);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const float scaled = quantizeBf16(
                truncateBf16(mm(i, j)) * quantizeBf16(1.0f));
            const float expected = quantizeBf16(
                truncateBf16(scaled) + quantizeBf16(bias_row(0, j)));
            EXPECT_EQ(result(i, j), truncateBf16(expected))
                << i << "," << j;
        }
    }
}

TEST(EndToEnd, TimingModelPredictsCycleSteppedTotals)
{
    // Sum of per-tile cycle counts from the closed form equals the
    // cycle-stepped array's counters over a whole tiled matmul.
    Rng rng(4);
    const std::size_t m = 23, k = 17, n = 19, s = 8;
    Matrix a(m, k), b(k, n);
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);

    SystolicArray array(ArrayGeometry::mType(s));
    for (std::size_t tm = 0; tm < m; tm += s) {
        const std::size_t rows = std::min(s, m - tm);
        for (std::size_t tn = 0; tn < n; tn += s) {
            const std::size_t cols = std::min(s, n - tn);
            Matrix a_tile(rows, k), b_tile(k, cols);
            for (std::size_t i = 0; i < rows; ++i)
                for (std::size_t j = 0; j < k; ++j)
                    a_tile(i, j) = a(tm + i, j);
            for (std::size_t i = 0; i < k; ++i)
                for (std::size_t j = 0; j < cols; ++j)
                    b_tile(i, j) = b(i, tn + j);
            array.matmulTile(a_tile, b_tile);
            array.clearAccumulators();
        }
    }
    EXPECT_EQ(array.matmulCycles(),
              TimingModel::matmulCycles(m, k, n, s));
}

TEST(EndToEnd, AcceleratorNumericsPreserveModelAgreement)
{
    // Whole-model check: Bf16Lut (full accelerator numerics) hidden
    // states correlate overwhelmingly with fp32 hidden states.
    const BertModel model(BertConfig::tiny(), 11);
    AminoTokenizer tok;
    const auto batch = std::vector<std::vector<std::uint32_t>>{
        tok.encode("MEYQACDWKLMNPQRS", 20)
    };
    const Matrix fp32 = model.forward(batch, NumericsMode::Fp32).hidden;
    const Matrix lut =
        model.forward(batch, NumericsMode::Bf16Lut).hidden;

    double dot = 0.0, norm_a = 0.0, norm_b = 0.0;
    for (std::size_t i = 0; i < fp32.rows(); ++i) {
        for (std::size_t j = 0; j < fp32.cols(); ++j) {
            dot += static_cast<double>(fp32(i, j)) * lut(i, j);
            norm_a += static_cast<double>(fp32(i, j)) * fp32(i, j);
            norm_b += static_cast<double>(lut(i, j)) * lut(i, j);
        }
    }
    const double cosine = dot / std::sqrt(norm_a * norm_b);
    EXPECT_GT(cosine, 0.99);
}

} // namespace
} // namespace prose
