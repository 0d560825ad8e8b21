/** @file Serving-layer stress: a long bursty stream with overload and
 *  chaos, run under the sanitizer presets via the regular suite. The
 *  assertions are the conservation law and replay determinism — the
 *  properties that must survive any scheduling pressure. */

#include <gtest/gtest.h>

#include "serve/serve_sim.hh"

namespace prose {
namespace {

TEST(ServeStress, BurstyOverloadedChaoticStreamConserves)
{
    ServeSpec spec;
    spec.model = BertShape{ 1, 256, 4, 1024, 1, 64 };
    spec.batcher.buckets = { 128, 256, 512 };
    spec.batcher.maxBatch = 4;
    spec.batcher.overloadDepth = 24;
    spec.admission.maxQueueDepth = 48;
    spec.instanceCount = 3;
    spec.arrivals.kind = ArrivalKind::Bursty;
    spec.arrivals.seed = 1234;
    spec.arrivals.count = 4000;
    spec.arrivals.minResidues = 60;
    spec.arrivals.maxResidues = 420;
    const ServiceModel model(spec.instance, spec.model,
                             spec.dispatchOverheadSeconds);
    // Mean load just under capacity; bursts push far beyond it.
    spec.arrivals.ratePerSecond =
        0.9 * model.capacityPerSecond(512, spec.batcher.maxBatch,
                                      spec.instanceCount);
    spec.arrivals.burstPeriodSeconds =
        200.0 / spec.arrivals.ratePerSecond;
    spec.sloSeconds = 10.0 * model.seconds(512, spec.batcher.maxBatch);

    const ServeSim sim(spec);
    FaultInjector first(CampaignSpec::parse(
        "kill_instance=2@#1500"));
    const ServeReport a = sim.run(&first);
    EXPECT_EQ(a.offered, 4000u);
    EXPECT_EQ(a.lost(), 0u);
    EXPECT_EQ(a.offered, a.done + a.timedOut + a.shed);
    EXPECT_GT(a.done, 0u);
    EXPECT_EQ(a.instancesKilled, 1u);

    FaultInjector second(CampaignSpec::parse(
        "kill_instance=2@#1500"));
    const ServeReport b = sim.run(&second);
    EXPECT_EQ(a.describe(), b.describe());
}

} // namespace
} // namespace prose
