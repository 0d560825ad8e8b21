/**
 * @file
 * Tests for the cross-platform comparison of Figures 1, 18 and 19: ProSE
 * against the A100, TPUv2 and TPUv3 through the bench_util.hh helpers
 * those exhibits compute it with.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "bench_util.hh"

namespace prose {
namespace {

using bench::platformEfficiency;
using bench::proseEfficiency;
using bench::proseSystemWatts;

BertShape
shapeAt(std::uint64_t batch = 8, std::uint64_t len = 256)
{
    return BertShape{ 12, 768, 12, 3072, batch, len };
}

/** ProSE's speedup over a platform, as Figure 18 divides it. */
double
proseSpeedup(const PlatformModel &platform, const BertShape &shape,
             const SimReport &prose)
{
    return platform.costTrace(synthesizeBertTrace(shape))
               .acceleratedSeconds /
           prose.makespan;
}

TEST(Comparison, HasAllThreeBaselines)
{
    const BertShape shape = shapeAt();
    std::set<std::string> names;
    for (const auto &factory : { &makeA100, &makeTpuV2, &makeTpuV3 }) {
        const auto platform = factory();
        names.insert(platform->name());
        const double efficiency = platformEfficiency(*platform, shape);
        EXPECT_TRUE(std::isfinite(efficiency)) << platform->name();
        EXPECT_GT(efficiency, 0.0) << platform->name();
    }
    EXPECT_EQ(names, (std::set<std::string>{ "A100", "TPUv2", "TPUv3" }));
}

TEST(Comparison, ProseRowIsSelfRelative)
{
    const ProseConfig config = ProseConfig::bestPerf();
    const SimReport report = bench::simulate(config, shapeAt());
    const double watts = proseSystemWatts(config, report);
    EXPECT_GT(watts, 10.0);
    EXPECT_LT(watts, 80.0);
    EXPECT_DOUBLE_EQ(proseEfficiency(config, report),
                     report.inferencesPerSecond() / watts);
}

TEST(Comparison, RatiosInternallyConsistent)
{
    const ProseConfig config = ProseConfig::bestPerf();
    const BertShape shape = shapeAt();
    const SimReport report = bench::simulate(config, shape);
    const double prose_watts = proseSystemWatts(config, report);
    for (const auto &factory : { &makeA100, &makeTpuV2, &makeTpuV3 }) {
        const auto platform = factory();
        const double seconds =
            platform->costTrace(synthesizeBertTrace(shape))
                .acceleratedSeconds;
        const double efficiency = platformEfficiency(*platform, shape);
        EXPECT_NEAR(efficiency * platform->watts() * seconds,
                    static_cast<double>(shape.batch), 1e-6);
        // Figure 19's efficiency gain is Figure 18's speedup scaled by
        // the power ratio.
        const double gain = proseEfficiency(config, report) / efficiency;
        EXPECT_NEAR(gain,
                    proseSpeedup(*platform, shape, report) *
                        platform->watts() / prose_watts,
                    gain * 1e-9)
            << platform->name();
    }
}

TEST(Comparison, ProseWinsAtProteinLengths)
{
    const ProseConfig config = ProseConfig::bestPerf();
    const BertShape shape = shapeAt(8, 512);
    const SimReport report = bench::simulate(config, shape);
    for (const auto &factory : { &makeA100, &makeTpuV2, &makeTpuV3 }) {
        const auto platform = factory();
        EXPECT_GT(proseSpeedup(*platform, shape, report), 1.0)
            << platform->name();
        EXPECT_GT(proseEfficiency(config, report) /
                      platformEfficiency(*platform, shape),
                  10.0)
            << platform->name();
    }
}

TEST(Comparison, TpuV2IsTheWorstBaseline)
{
    const ProseConfig config = ProseConfig::bestPerf();
    const BertShape shape = shapeAt(8, 512);
    const double prose =
        proseEfficiency(config, bench::simulate(config, shape));
    const double gain_a100 =
        prose / platformEfficiency(*makeA100(), shape);
    const double gain_tpu2 =
        prose / platformEfficiency(*makeTpuV2(), shape);
    const double gain_tpu3 =
        prose / platformEfficiency(*makeTpuV3(), shape);
    EXPECT_GT(gain_tpu2, gain_tpu3);
    EXPECT_GT(gain_tpu3, gain_a100);
}

} // namespace
} // namespace prose
