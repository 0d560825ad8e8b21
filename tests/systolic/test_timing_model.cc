/** @file Tests validating the closed-form timing model against the
 *  cycle-stepped systolic array, plus dataflow-task costing. */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "systolic/systolic_array.hh"
#include "systolic/timing_model.hh"

namespace prose {
namespace {

Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix m(rows, cols);
    m.fillGaussian(rng, 0.0f, 1.0f);
    return m;
}

TEST(TimingModel, TileFormulaMatchesCycleSteppedModel)
{
    // Property: the closed-form cycle count of a one-tile product
    // equals what the register-accurate model actually takes, across
    // random shapes.
    Rng rng(1);
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t n = 2 + rng.below(12);
        const std::size_t rows = 1 + rng.below(n);
        const std::size_t cols = 1 + rng.below(n);
        const std::size_t k = 1 + rng.below(50);
        SystolicArray array(
            ArrayGeometry::mType(static_cast<std::uint32_t>(n)));
        const std::uint64_t measured = array.matmulTile(
            randomMatrix(rng, rows, k), randomMatrix(rng, k, cols));
        EXPECT_EQ(measured, TimingModel::matmulCycles(rows, k, cols, n));
    }
}

TEST(TimingModel, FullMatmulEqualsTileEnumeration)
{
    // Closed form vs explicit summation of one-tile products.
    for (std::uint64_t m : { 1u, 7u, 64u, 100u }) {
        for (std::uint64_t n : { 1u, 5u, 64u, 96u }) {
            for (std::uint64_t k : { 1u, 16u, 77u }) {
                const std::uint64_t s = 16;
                std::uint64_t expected = 0;
                for (std::uint64_t tm = 0; tm < m; tm += s) {
                    const std::uint64_t rows = std::min(s, m - tm);
                    for (std::uint64_t tn = 0; tn < n; tn += s) {
                        const std::uint64_t cols = std::min(s, n - tn);
                        expected +=
                            TimingModel::matmulCycles(rows, k, cols, s);
                    }
                }
                EXPECT_EQ(TimingModel::matmulCycles(m, k, n, s),
                          expected)
                    << m << "x" << k << "x" << n;
            }
        }
    }
}

TEST(TimingModel, SimdPassMatchesCycleSteppedModel)
{
    Rng rng(2);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = 2 + rng.below(10);
        SystolicArray array(
            ArrayGeometry::mType(static_cast<std::uint32_t>(n)));
        array.matmulTile(randomMatrix(rng, n, 4),
                         randomMatrix(rng, 4, n));
        const std::uint64_t cycles =
            array.simdScalar(SimdOp::MulScalar, 2.0f);
        // One full-array tile -> one tile row -> n cycles per pass.
        EXPECT_EQ(cycles, TimingModel::simdPassCycles(n, n, n));
    }
}

TEST(TimingModel, SimdPassCyclesScalesWithTileRows)
{
    // m x n elementwise on size s: ceil(m/s) tile rows, n cycles each.
    EXPECT_EQ(TimingModel::simdPassCycles(64, 768, 64), 768u);
    EXPECT_EQ(TimingModel::simdPassCycles(128, 768, 64), 2u * 768u);
    EXPECT_EQ(TimingModel::simdPassCycles(100, 768, 64), 2u * 768u);
}

DataflowTask
makeDf1(std::uint64_t m, std::uint64_t k, std::uint64_t n)
{
    OpTrace trace;
    trace.record(OpKind::MatMul, Sublayer::Attention, 0, 1, m, k, n);
    trace.record(OpKind::MulAdd, Sublayer::Attention, 0, 1, m, 0, n,
                 true);
    return DataflowBuilder{}.build(trace).front();
}

TEST(TimingModel, Dataflow1Cost)
{
    const TimingModel timing(true);
    const ArrayGeometry geom = ArrayGeometry::mType(64);
    const TaskCost cost = timing.costTask(makeDf1(128, 768, 768), geom);

    EXPECT_EQ(cost.matmulCycles,
              TimingModel::matmulCycles(128, 768, 768, 64));
    // Drain (1 pass) + MulAdd (2 passes).
    EXPECT_EQ(cost.simdCycles,
              3 * TimingModel::simdPassCycles(128, 768, 64));
    // A + B + bias vector, all bf16.
    EXPECT_EQ(cost.bytesIn,
              (128u * 768 + 768 * 768 + 768) * 2);
    EXPECT_EQ(cost.bytesOut, 128u * 768 * 2);
    EXPECT_EQ(cost.hostSoftmaxElems, 0u);
    EXPECT_GT(cost.flops, 0.0);
}

TEST(TimingModel, NoBufferAddsRestreamTraffic)
{
    const TimingModel with_buffer(true);
    const TimingModel without(false);
    const ArrayGeometry geom = ArrayGeometry::mType(64);
    const DataflowTask task = makeDf1(6400, 768, 768);
    const std::uint64_t with_bytes =
        with_buffer.costTask(task, geom).bytesIn;
    const std::uint64_t without_bytes =
        without.costTask(task, geom).bytesIn;
    EXPECT_GT(without_bytes, with_bytes);
    // Restream = min((Tn-1)*m*k, (Tm-1)*k*n) * 2 bytes.
    const std::uint64_t tm = (6400 + 63) / 64, tn = 12;
    const std::uint64_t expected_extra =
        2 * std::min((tn - 1) * 6400ull * 768, (tm - 1) * 768ull * 768);
    EXPECT_EQ(without_bytes - with_bytes, expected_extra);
}

TEST(TimingModel, Dataflow3CountsHostSoftmaxAndBatch)
{
    OpTrace trace;
    const std::uint64_t bh = 8, l = 64, dk = 16;
    trace.record(OpKind::Bmm, Sublayer::Attention, 0, bh, l, dk, l);
    trace.record(OpKind::MatDiv, Sublayer::Attention, 0, bh, l, 0, l);
    trace.record(OpKind::Exp, Sublayer::Attention, 0, bh, l, 0, l);
    trace.record(OpKind::SoftmaxHost, Sublayer::Attention, 0, bh, l, 0,
                 l);
    trace.record(OpKind::Bmm, Sublayer::Attention, 0, bh, l, l, dk);
    const auto task = DataflowBuilder{}.build(trace).front();

    const TimingModel timing(true);
    const ArrayGeometry geom = ArrayGeometry::eType(16);
    const TaskCost cost = timing.costTask(task, geom);

    EXPECT_EQ(cost.hostSoftmaxElems, bh * l * l);
    const std::uint64_t bmm1 =
        bh * TimingModel::matmulCycles(l, dk, l, 16);
    const std::uint64_t bmm2 =
        bh * TimingModel::matmulCycles(l, l, dk, 16);
    EXPECT_EQ(cost.matmulCycles, bmm1 + bmm2);
    // SIMD: drain after each BMM + MatDiv + Exp passes.
    const std::uint64_t pass1 =
        bh * TimingModel::simdPassCycles(l, l, 16);
    const std::uint64_t pass2 =
        bh * TimingModel::simdPassCycles(l, dk, 16);
    EXPECT_EQ(cost.simdCycles, 3 * pass1 + pass2);
}

TEST(TimingModel, HostTaskIsFreeOnTheAccelerator)
{
    OpTrace trace;
    trace.record(OpKind::LayerNorm, Sublayer::Output, 0, 1, 64, 0, 64);
    const auto task = DataflowBuilder{}.build(trace).front();
    const TaskCost cost =
        TimingModel(true).costTask(task, ArrayGeometry::mType(64));
    EXPECT_EQ(cost.matmulCycles, 0u);
    EXPECT_EQ(cost.simdCycles, 0u);
    EXPECT_EQ(cost.bytesIn, 0u);
}

TEST(TimingModel, ComputeSecondsUsesBothClocks)
{
    TaskCost cost;
    cost.matmulCycles = 1600;
    cost.simdCycles = 800;
    const ArrayGeometry geom = ArrayGeometry::mType(64);
    EXPECT_DOUBLE_EQ(cost.computeSeconds(geom),
                     1600.0 / 1.6e9 + 800.0 / 800e6);
}

TEST(TimingModel, SmallerArraysNeedMoreCyclesForBigMatmuls)
{
    // The homogeneous-vs-heterogeneous tension: a 16x16 array takes far
    // more cycles than a 64x64 on a large matmul...
    EXPECT_GT(TimingModel::matmulCycles(4096, 768, 768, 16),
              TimingModel::matmulCycles(4096, 768, 768, 64));
    // ...but achieves far better PE utilization on a tiny one: the
    // 64x64 array burns 4096 PE-slots per cycle on a 16-wide tile.
    auto utilization = [](std::uint64_t m, std::uint64_t k,
                          std::uint64_t n, std::uint64_t s) {
        const double macs = static_cast<double>(m) * k * n;
        const double slots =
            static_cast<double>(TimingModel::matmulCycles(m, k, n, s)) *
            s * s;
        return macs / slots;
    };
    EXPECT_GT(utilization(16, 64, 16, 16),
              4.0 * utilization(16, 64, 16, 64));
}

TEST(TimingModelDeathTest, GeluOnPlainArrayPanics)
{
    OpTrace trace;
    trace.record(OpKind::MatMul, Sublayer::Intermediate, 0, 1, 8, 8, 8);
    trace.record(OpKind::MulAdd, Sublayer::Intermediate, 0, 1, 8, 0, 8,
                 true);
    trace.record(OpKind::Gelu, Sublayer::Intermediate, 0, 1, 8, 0, 8);
    const auto task = DataflowBuilder{}.build(trace).front();
    EXPECT_DEATH(
        TimingModel(true).costTask(task, ArrayGeometry::mType(64)),
        "without GELU");
}

} // namespace
} // namespace prose
