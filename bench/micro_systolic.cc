/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot kernels: the
 * cycle-stepped systolic array in both modes, the two-level LUTs, the
 * bfloat16 conversions, the closed-form timing model, and one full DES
 * run. These measure *simulator* throughput (host seconds per simulated
 * cycle), not modeled hardware performance.
 */

#include <benchmark/benchmark.h>

#include "accel/perf_sim.hh"
#include "common/random.hh"
#include "numerics/lut.hh"
#include "systolic/systolic_array.hh"
#include "numerics/host_kernels.hh"
#include "systolic/functional_sim.hh"
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

void
BM_CycleSteppedMatmulTile(benchmark::State &state)
{
    const auto dim = static_cast<std::uint32_t>(state.range(0));
    Rng rng(1);
    const Matrix a = randomMatrix(rng, dim, 64);
    const Matrix b = randomMatrix(rng, 64, dim);
    SystolicArray array(ArrayGeometry::mType(dim));
    array.setMode(FsimMode::Stepped);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        array.clearAccumulators();
        cycles += array.matmulTile(a, b);
    }
    state.counters["sim_cycles/iter"] =
        benchmark::Counter(static_cast<double>(cycles),
                           benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CycleSteppedMatmulTile)->Arg(16)->Arg(32)->Arg(64);

void
BM_CycleSteppedSimdPass(benchmark::State &state)
{
    const auto dim = static_cast<std::uint32_t>(state.range(0));
    Rng rng(2);
    SystolicArray array(ArrayGeometry::gType(dim));
    array.setMode(FsimMode::Stepped);
    array.matmulTile(randomMatrix(rng, dim, 16),
                     randomMatrix(rng, 16, dim));
    for (auto _ : state)
        benchmark::DoNotOptimize(array.simdSpecial(SimdOp::Gelu));
}
BENCHMARK(BM_CycleSteppedSimdPass)->Arg(16)->Arg(32);

void
BM_LutLookup(benchmark::State &state)
{
    const TwoLevelLut &lut = expLut();
    Rng rng(3);
    std::vector<Bfloat16> inputs;
    for (int i = 0; i < 4096; ++i)
        inputs.push_back(Bfloat16(
            static_cast<float>(rng.uniform(-30.0, 10.0))));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lut.lookup(inputs[i & 4095]));
        ++i;
    }
}
BENCHMARK(BM_LutLookup);

void
BM_Bf16RoundTrip(benchmark::State &state)
{
    Rng rng(4);
    std::vector<float> inputs(4096);
    for (float &x : inputs)
        x = static_cast<float>(rng.gaussian());
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(quantizeBf16(inputs[i & 4095]));
        ++i;
    }
}
BENCHMARK(BM_Bf16RoundTrip);

void
BM_TimingModelTaskCost(benchmark::State &state)
{
    OpTrace trace;
    trace.record(OpKind::MatMul, Sublayer::Attention, 0, 1, 65536, 768,
                 768);
    trace.record(OpKind::MulAdd, Sublayer::Attention, 0, 1, 65536, 0,
                 768, true);
    const DataflowTask task = DataflowBuilder{}.build(trace).front();
    const TimingModel timing(true);
    const ArrayGeometry geom = ArrayGeometry::mType(64);
    for (auto _ : state)
        benchmark::DoNotOptimize(timing.costTask(task, geom));
}
BENCHMARK(BM_TimingModelTaskCost);

void
BM_FullPerfSimRun(benchmark::State &state)
{
    const BertShape shape{ 12, 768, 12, 3072,
                           static_cast<std::uint64_t>(state.range(0)),
                           512 };
    PerfSim sim(ProseConfig::bestPerf());
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.run(shape));
}
BENCHMARK(BM_FullPerfSimRun)->Arg(8)->Arg(128);

void
BM_TraceSynthesis(benchmark::State &state)
{
    const BertShape shape{ 12, 768, 12, 3072, 128, 512 };
    for (auto _ : state)
        benchmark::DoNotOptimize(synthesizeBertTrace(shape));
}
BENCHMARK(BM_TraceSynthesis);

void
BM_FunctionalDataflow2(benchmark::State &state)
{
    Rng rng(5);
    Matrix a(16, 32), b(32, 16), bias(1, 16);
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    bias.fillGaussian(rng, 0.0f, 1.0f);
    FunctionalSimulator sim(ArrayGeometry::mType(16),
                            ArrayGeometry::gType(16),
                            ArrayGeometry::eType(16));
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.dataflow2(a, b, 1.0f, &bias));
}
BENCHMARK(BM_FunctionalDataflow2);

void
BM_HostSoftmaxDivide(benchmark::State &state)
{
    Rng rng(6);
    Matrix exp_values(512, 512);
    for (std::size_t i = 0; i < 512; ++i)
        for (std::size_t j = 0; j < 512; ++j)
            exp_values(i, j) =
                static_cast<float>(rng.uniform(0.01, 2.0));
    for (auto _ : state) {
        Matrix work = exp_values;
        hostSoftmaxDivide(work);
        benchmark::DoNotOptimize(work);
    }
}
BENCHMARK(BM_HostSoftmaxDivide);

void
BM_DataflowBuild(benchmark::State &state)
{
    const OpTrace trace =
        synthesizeBertTrace(BertShape{ 12, 768, 12, 3072, 128, 512 });
    DataflowBuilder builder;
    for (auto _ : state)
        benchmark::DoNotOptimize(builder.build(trace));
}
BENCHMARK(BM_DataflowBuild);

} // namespace
} // namespace prose

BENCHMARK_MAIN();
