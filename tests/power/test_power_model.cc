/** @file Tests for the configuration-level power/area/energy model. */

#include <gtest/gtest.h>

#include "power/power_model.hh"

namespace prose {
namespace {

ArrayPools
bestPerfGroups()
{
    return { { { ArrayGeometry::mType(64), 2 },
               { ArrayGeometry::gType(16), 10 },
               { ArrayGeometry::eType(16), 22 } } };
}

TEST(PowerModel, BestPerfArrayPowerNearTable4)
{
    // Table 4 lists BestPerf at 12994 mW; summing Table 2 rows (no
    // input buffers) gives 13.38 W — within a few percent of the
    // paper's figure (which nets out some shared infrastructure).
    const PowerModel model;
    const double watts = model.arrayPowerWatts(bestPerfGroups(), false);
    EXPECT_NEAR(watts, 12.994, 0.6);
}

TEST(PowerModel, BestPerfAreaNearTable4)
{
    // Table 4: 12.75 mm^2 (with the input buffers the DSE selects).
    const PowerModel model;
    const double mm2 = model.arrayAreaMm2(bestPerfGroups(), true);
    EXPECT_NEAR(mm2, 12.75, 0.7);
}

TEST(PowerModel, BufferedConfigCostsMore)
{
    const PowerModel model;
    EXPECT_GT(model.arrayPowerWatts(bestPerfGroups(), true),
              model.arrayPowerWatts(bestPerfGroups(), false));
    EXPECT_GT(model.arrayAreaMm2(bestPerfGroups(), true),
              model.arrayAreaMm2(bestPerfGroups(), false));
}

TEST(PowerModel, SystemPowerAddsDutyCycledHost)
{
    const PowerModel model;
    const double arrays = model.arrayPowerWatts(bestPerfGroups(), false);
    // The paper's measured operating point: CPU busy 21.4% of the time
    // at 50.21 W plus 6.23 W DRAM.
    const double system =
        model.systemPowerWatts(bestPerfGroups(), false, 0.214);
    EXPECT_NEAR(system - arrays, 0.214 * 50.21 + 6.23, 1e-9);
}

TEST(PowerModel, IdleHostStillBurnsDram)
{
    const PowerModel model;
    const double system =
        model.systemPowerWatts(bestPerfGroups(), false, 0.0);
    EXPECT_NEAR(system,
                model.arrayPowerWatts(bestPerfGroups(), false) + 6.23,
                1e-9);
}

TEST(PowerModel, WholeProseIsTinyFractionOfA100)
{
    // The paper's headline: all of ProSE is a few percent of an A100's
    // power and area budget.
    const PowerModel model;
    EXPECT_LT(model.arrayPowerWatts(bestPerfGroups(), true) /
                  kA100PowerWatts,
              0.05);
    EXPECT_LT(model.arrayAreaMm2(bestPerfGroups(), true) / kA100AreaMm2,
              0.02);
}

TEST(PowerModelDeathTest, BadDutyPanics)
{
    const PowerModel model;
    EXPECT_DEATH(model.systemPowerWatts(bestPerfGroups(), false, 1.5),
                 "duty");
}

} // namespace
} // namespace prose
