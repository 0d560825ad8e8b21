/** @file Property tests over randomly generated (grammar-valid) op
 *  traces: the dataflow builder and task costing must hold for
 *  arbitrary workloads, not just BERT's. */

#include <gtest/gtest.h>

#include "accel/perf_sim.hh"
#include "common/random.hh"
#include "systolic/timing_model.hh"

namespace prose {
namespace {

/** Emit one random grammar-valid accelerated sequence. */
void
emitRandomTask(Rng &rng, OpTrace &trace, int layer)
{
    auto dim = [&] { return 1 + rng.below(300); };
    switch (rng.below(3)) {
      case 0: { // Dataflow 1: MatMul + 1..3 MulAdds
        const std::uint64_t m = dim(), k = dim(), n = dim();
        trace.record(OpKind::MatMul, Sublayer::Attention, layer, 1, m,
                     k, n);
        const std::uint64_t muladds = 1 + rng.below(3);
        for (std::uint64_t i = 0; i < muladds; ++i)
            trace.record(OpKind::MulAdd, Sublayer::Attention, layer, 1,
                         m, 0, n, rng.below(2) == 0);
        break;
      }
      case 1: { // Dataflow 2
        const std::uint64_t m = dim(), k = dim(), n = dim();
        trace.record(OpKind::MatMul, Sublayer::Intermediate, layer, 1,
                     m, k, n);
        trace.record(OpKind::MulAdd, Sublayer::Intermediate, layer, 1,
                     m, 0, n, true);
        trace.record(OpKind::Gelu, Sublayer::Intermediate, layer, 1, m,
                     0, n);
        break;
      }
      default: { // Dataflow 3
        const std::uint64_t b = 1 + rng.below(16);
        const std::uint64_t l = dim(), dk = 1 + rng.below(64);
        trace.record(OpKind::Bmm, Sublayer::Attention, layer, b, l, dk,
                     l);
        trace.record(OpKind::MatDiv, Sublayer::Attention, layer, b, l,
                     0, l);
        trace.record(OpKind::Exp, Sublayer::Attention, layer, b, l, 0,
                     l);
        trace.record(OpKind::SoftmaxHost, Sublayer::Attention, layer, b,
                     l, 0, l);
        trace.record(OpKind::Bmm, Sublayer::Attention, layer, b, l, l,
                     dk);
        break;
      }
    }
}

OpTrace
randomTrace(Rng &rng, std::size_t tasks)
{
    OpTrace trace;
    for (std::size_t i = 0; i < tasks; ++i) {
        if (rng.below(4) == 0)
            trace.record(OpKind::LayerNorm, Sublayer::Output,
                         static_cast<int>(i), 1, 1 + rng.below(500), 0,
                         1 + rng.below(500));
        emitRandomTask(rng, trace, static_cast<int>(i));
    }
    return trace;
}

TEST(RandomTraces, BuilderAlwaysParsesGrammarValidTraces)
{
    Rng rng(1);
    for (int trial = 0; trial < 50; ++trial) {
        const OpTrace trace = randomTrace(rng, 1 + rng.below(20));
        const auto tasks = DataflowBuilder{}.build(trace);
        // Tasks partition the trace: op counts must match.
        std::size_t ops = 0;
        for (const auto &task : tasks)
            ops += task.ops.size();
        EXPECT_EQ(ops, trace.size());
    }
}

TEST(RandomTraces, TaskCostsAreSaneForArbitraryShapes)
{
    Rng rng(3);
    const TimingModel timing(true);
    const ArrayGeometry geoms[3] = { ArrayGeometry::mType(64),
                                     ArrayGeometry::gType(16),
                                     ArrayGeometry::eType(16) };
    for (int trial = 0; trial < 30; ++trial) {
        const OpTrace trace = randomTrace(rng, 1 + rng.below(10));
        for (const auto &task : DataflowBuilder{}.build(trace)) {
            if (task.kind == DataflowKind::Host)
                continue;
            const ArrayGeometry &geom =
                geoms[typeIndex(arrayTypeFor(task.kind))];
            const TaskCost cost = timing.costTask(task, geom);
            EXPECT_GT(cost.matmulCycles, 0u);
            EXPECT_GT(cost.simdCycles, 0u);
            EXPECT_GT(cost.bytesIn, 0u);
            EXPECT_GT(cost.bytesOut, 0u);
            EXPECT_GT(cost.flops, 0.0);
            // Useful MACs never exceed cycle capacity.
            const double macs = cost.flops / 2.0;
            EXPECT_LE(macs, static_cast<double>(cost.matmulCycles) *
                                geom.peCount() * 1.0001);
        }
    }
}

TEST(RandomTraces, PerfSimSchedulesArbitraryThreadLoads)
{
    Rng rng(4);
    std::vector<std::vector<DataflowTask>> threads;
    DataflowBuilder builder;
    for (int t = 0; t < 5; ++t)
        threads.push_back(
            builder.build(randomTrace(rng, 1 + rng.below(8))));
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport report = sim.runTasks(threads);
    EXPECT_GT(report.makespan, 0.0);
    EXPECT_GT(report.taskCount, 0u);
}

} // namespace
} // namespace prose
