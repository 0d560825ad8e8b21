/** @file Parameterized DES invariant sweeps: every named configuration
 *  crossed with every workload length must satisfy the simulator's
 *  conservation and sanity properties. */

#include <gtest/gtest.h>

#include <tuple>

#include "accel/perf_sim.hh"

namespace prose {
namespace {

using SweepParam = std::tuple<std::string, std::uint64_t>;

ProseConfig
configByName(const std::string &name)
{
    if (name == "bestPerf")
        return ProseConfig::bestPerf();
    if (name == "mostEfficient")
        return ProseConfig::mostEfficient();
    if (name == "homogeneous")
        return ProseConfig::homogeneous();
    if (name == "bestPerfPlus")
        return ProseConfig::bestPerfPlus();
    return ProseConfig::homogeneousPlus();
}

class PerfSimSweep : public ::testing::TestWithParam<SweepParam>
{
  protected:
    SimReport
    runOnce() const
    {
        const auto &[name, len] = GetParam();
        PerfSim sim(configByName(name));
        return sim.run(BertShape{ 2, 768, 12, 3072, 8, len });
    }
};

TEST_P(PerfSimSweep, MakespanPositiveAndFinite)
{
    const SimReport report = runOnce();
    EXPECT_GT(report.makespan, 0.0);
    EXPECT_LT(report.makespan, 60.0); // nothing takes a minute here
}

TEST_P(PerfSimSweep, UtilizationWithinBounds)
{
    const SimReport report = runOnce();
    for (ArrayType type : { ArrayType::M, ArrayType::G, ArrayType::E }) {
        EXPECT_GE(report.utilization(type), 0.0);
        EXPECT_LE(report.utilization(type), 1.0 + 1e-9);
    }
}

TEST_P(PerfSimSweep, TrafficAndWorkNonZero)
{
    const SimReport report = runOnce();
    EXPECT_GT(report.bytesIn, 0u);
    EXPECT_GT(report.bytesOut, 0u);
    EXPECT_GT(report.totalFlops, 0.0);
    EXPECT_GT(report.hostBusySeconds, 0.0);
}

TEST_P(PerfSimSweep, FlopsMatchTraceExactly)
{
    const auto &[name, len] = GetParam();
    const SimReport report = runOnce();
    const BertShape shape{ 2, 768, 12, 3072, 8, len };
    // The per-thread batch split preserves total FLOPs exactly because
    // every op's work is linear in the batch dimension.
    const double expected = synthesizeBertTrace(shape).totalFlops();
    EXPECT_NEAR(report.totalFlops, expected, expected * 1e-12);
}

TEST_P(PerfSimSweep, InfiniteBandwidthNeverSlower)
{
    const auto &[name, len] = GetParam();
    ProseConfig finite = configByName(name);
    ProseConfig infinite = configByName(name);
    infinite.link = LinkSpec::infinite();
    const BertShape shape{ 2, 768, 12, 3072, 8, len };
    const double t_finite = PerfSim(finite).run(shape).makespan;
    const double t_infinite = PerfSim(infinite).run(shape).makespan;
    EXPECT_LE(t_infinite, t_finite * 1.0001);
}

TEST_P(PerfSimSweep, AchievedFlopsBelowConfiguredPeak)
{
    const auto &[name, len] = GetParam();
    const SimReport report = runOnce();
    const ProseConfig config = configByName(name);
    // Peak: every PE doing one MAC (2 FLOPs) per matmul-clock cycle.
    const double peak = static_cast<double>(config.totalPes()) * 2.0 *
                        ghz(1.6);
    EXPECT_LT(report.totalFlops / report.makespan, peak);
}

TEST_P(PerfSimSweep, RuntimeMonotoneInLength)
{
    const auto &[name, len] = GetParam();
    const ProseConfig config = configByName(name);
    const BertShape shape{ 2, 768, 12, 3072, 8, len };
    BertShape longer = shape;
    longer.seqLen = len * 2;
    EXPECT_LT(PerfSim(config).run(shape).makespan,
              PerfSim(config).run(longer).makespan);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsByLength, PerfSimSweep,
    ::testing::Combine(::testing::Values("bestPerf", "mostEfficient",
                                         "homogeneous", "bestPerfPlus",
                                         "homogeneousPlus"),
                       ::testing::Values(64u, 256u, 1024u)),
    [](const auto &param_info) {
        return std::get<0>(param_info.param) + "_len" +
               std::to_string(std::get<1>(param_info.param));
    });

} // namespace
} // namespace prose
