/** @file Tests for the per-run energy ledger. */

#include <gtest/gtest.h>

#include "accel/energy_report.hh"

namespace prose {
namespace {

std::pair<ProseConfig, SimReport>
run(std::uint64_t batch = 8)
{
    const ProseConfig config = ProseConfig::bestPerf();
    PerfSim sim(config);
    return { config, sim.run(BertShape{ 2, 768, 12, 3072, batch, 256 }) };
}

TEST(EnergyReport, AllComponentsPositive)
{
    const auto [config, report] = run();
    const EnergyReport energy = buildEnergyReport(config, report);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_GT(energy.arrayBusyJoules[i], 0.0) << i;
        EXPECT_GE(energy.arrayIdleJoules[i], 0.0) << i;
    }
    EXPECT_GE(energy.cpuJoules, 0.0);
    EXPECT_GT(energy.dramJoules, 0.0);
    EXPECT_GT(energy.linkJoules, 0.0);
    EXPECT_GT(energy.totalJoules(), 0.0);
}

TEST(EnergyReport, MeanWattsWithinSystemEnvelope)
{
    // The ledger's mean power must sit between the idle floor and the
    // all-busy ceiling of the configuration.
    const auto [config, report] = run();
    const EnergyReport energy = buildEnergyReport(config, report);
    const PowerModel power;
    const double all_busy = power.systemPowerWatts(
        config.groups, config.partialInputBuffer, 1.0);
    const double mean = energy.totalJoules() / report.makespan;
    EXPECT_LT(mean, all_busy * 1.3); // link adder can exceed slightly
    EXPECT_GT(mean,
              power.arrayPowerWatts(config.groups, true) * 0.3);
}

TEST(EnergyReport, JoulesPerInferenceConsistent)
{
    const auto [config, report] = run(16);
    const EnergyReport energy = buildEnergyReport(config, report);
    EXPECT_NEAR(energy.joulesPerInference(report) * 16,
                energy.totalJoules(), 1e-9);
}

TEST(EnergyReport, IdleArraysBurnThirtyPercentOfTheirPower)
{
    // Idle array-seconds cost 30% of the array's Table 2 power: the
    // idle/busy joule ratio of a type is 0.3 x its idle/busy seconds.
    const auto [config, report] = run();
    const EnergyReport energy = buildEnergyReport(config, report);
    for (const ArrayGroupSpec &group : config.groups) {
        const std::size_t idx = typeIndex(group.geometry.type);
        const double busy = report.typeBusySeconds[idx];
        const double idle = report.makespan * group.count - busy;
        ASSERT_GT(busy, 0.0) << idx;
        ASSERT_GT(idle, 0.0) << idx;
        EXPECT_NEAR(energy.arrayIdleJoules[idx] / energy.arrayBusyJoules[idx],
                    0.3 * idle / busy, 1e-9)
            << idx;
    }
}

TEST(EnergyReport, LinkEnergyTracksTraffic)
{
    const auto [config, report] = run();
    const EnergyReport energy = buildEnergyReport(config, report);
    EXPECT_DOUBLE_EQ(energy.linkJoules,
                     (report.bytesIn + report.bytesOut) * 25e-12);
}

TEST(EnergyReport, BusierRunBurnsMoreArrayEnergy)
{
    const auto [config, small] = run(4);
    const auto [config2, large] = run(32);
    const EnergyReport e_small = buildEnergyReport(config, small);
    const EnergyReport e_large = buildEnergyReport(config2, large);
    double busy_small = 0.0, busy_large = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
        busy_small += e_small.arrayBusyJoules[i];
        busy_large += e_large.arrayBusyJoules[i];
    }
    EXPECT_GT(busy_large, busy_small);
}

} // namespace
} // namespace prose
