/** @file The chaos drill acceptance tests: instance kills mid-stream at
 *  70% utilization must keep SLO retention >= 0.9 with zero lost
 *  requests, deterministically. */

#include <gtest/gtest.h>

#include "serve/serve_sim.hh"

namespace prose {
namespace {

/** The drill workload: 4 instances at 70% of full-batch capacity. */
ServeSpec
drillSpec(std::uint64_t count = 1000)
{
    ServeSpec spec;
    spec.model = BertShape{ 1, 256, 4, 1024, 1, 64 };
    spec.batcher.buckets = { 128, 256 };
    spec.batcher.maxBatch = 4;
    spec.batcher.overloadDepth = 64;
    spec.admission.maxQueueDepth = 256;
    spec.instanceCount = 4;
    spec.arrivals.seed = 11;
    spec.arrivals.count = count;
    spec.arrivals.minResidues = 126;
    spec.arrivals.maxResidues = 126;
    const ServiceModel model(spec.instance, spec.model,
                             spec.dispatchOverheadSeconds);
    spec.arrivals.ratePerSecond =
        0.7 * model.capacityPerSecond(128, spec.batcher.maxBatch,
                                      spec.instanceCount);
    spec.sloSeconds = 8.0 * model.seconds(128, spec.batcher.maxBatch);
    return spec;
}

TEST(ServeChaos, ArrivalIndexedKillKeepsSloRetention)
{
    // The acceptance drill: one of four instances dies when request
    // #500 of 1000 arrives. The fleet sheds/retries around the death
    // and must keep at least 90% of healthy goodput, with every request
    // accounted for.
    const ServeSim sim(drillSpec());
    const ServeReport healthy = sim.run();
    ASSERT_EQ(healthy.lost(), 0u);
    ASSERT_EQ(healthy.done, healthy.offered);

    FaultInjector injector(
        CampaignSpec::parse("kill_instance=1@#500"));
    const ServeReport chaos = sim.run(&injector);

    EXPECT_EQ(chaos.instancesKilled, 1u);
    EXPECT_EQ(chaos.lost(), 0u);
    EXPECT_EQ(chaos.offered,
              chaos.done + chaos.timedOut + chaos.shed);
    EXPECT_GE(sloRetention(healthy, chaos), 0.9);
    // The death is visible in the accounting, not hidden.
    EXPECT_LT(chaos.done, healthy.done + 1);
    EXPECT_GT(chaos.p99Seconds, 0.0);
}

TEST(ServeChaos, ChaosReplayIsBitIdentical)
{
    const ServeSim sim(drillSpec(600));
    FaultInjector first(CampaignSpec::parse("kill_instance=1@#300"));
    FaultInjector second(CampaignSpec::parse("kill_instance=1@#300"));
    const ServeReport a = sim.run(&first);
    const ServeReport b = sim.run(&second);
    EXPECT_EQ(a.describe(), b.describe());
    ASSERT_EQ(a.latencies.size(), b.latencies.size());
    for (std::size_t i = 0; i < a.latencies.size(); ++i)
        EXPECT_EQ(a.latencies[i], b.latencies[i]);
}

TEST(ServeChaos, MidBatchKillRetriesInFlightWork)
{
    // A timed kill placed inside the busy window forces in-flight
    // members of the dead instance through the RETRIED path.
    ServeSpec spec = drillSpec(600);
    const ServeSim sim(spec);
    const ServeReport healthy = sim.run();
    CampaignSpec campaign;
    campaign.instanceKills = {
        InstanceKill{ 0, healthy.horizonSeconds * 0.4 }
    };
    FaultInjector injector(campaign);
    const ServeReport chaos = sim.run(&injector);
    EXPECT_EQ(chaos.instancesKilled, 1u);
    EXPECT_GT(chaos.retries, 0u);
    EXPECT_EQ(chaos.lost(), 0u);
    EXPECT_GE(sloRetention(healthy, chaos), 0.9);
}

TEST(ServeChaos, KillingEveryInstanceStillConserves)
{
    // Unlike the closed-loop system model (which fatals when nothing is
    // left to re-shard onto), the serving layer must account a total
    // outage honestly: every request terminal, none lost.
    ServeSpec spec = drillSpec(200);
    spec.instanceCount = 2;
    CampaignSpec campaign;
    campaign.instanceKills = { InstanceKill{ 0, 0.0 },
                               InstanceKill{ 1, 0.0 } };
    FaultInjector injector(campaign);
    const ServeReport report = ServeSim(spec).run(&injector);
    EXPECT_EQ(report.instancesKilled, 2u);
    EXPECT_EQ(report.done, 0u);
    EXPECT_EQ(report.lost(), 0u);
    EXPECT_EQ(report.offered, report.timedOut + report.shed);
}

TEST(ServeChaos, RetryBudgetExhaustionSheds)
{
    // One request and a kill cascade down a three-instance fleet. Each
    // death drops the request mid-service; its retry (200 us * 2^k
    // backoff plus up to 50% jitter) lands on the lowest live instance,
    // which dies next. The third death spends the 3-attempt budget, so
    // the request is shed, not retried forever.
    ServeSpec spec = drillSpec(1);
    spec.model.layers = 4; // ~2 ms of service: wide kill windows
    spec.instanceCount = 3;
    spec.batcher.maxBatch = 1;
    spec.sloSeconds = 0.1;
    const ServiceModel model(spec.instance, spec.model,
                             spec.dispatchOverheadSeconds);
    const double service = model.seconds(128, 1);
    ASSERT_GT(service, 1.5e-3);
    const double first =
        generateArrivals(spec.arrivals, spec.sloSeconds)
            .front()
            .arrivalSeconds +
        0.5 * service;
    CampaignSpec campaign;
    campaign.instanceKills = { InstanceKill{ 0, first },
                               InstanceKill{ 1, first + 1.0e-3 },
                               InstanceKill{ 2, first + 2.5e-3 } };
    FaultInjector injector(campaign);
    const ServeReport chaos = ServeSim(spec).run(&injector);
    EXPECT_EQ(chaos.instancesKilled, 3u);
    EXPECT_EQ(chaos.retries, 2u);
    EXPECT_GT(chaos.shedRetryBudget, 0u);
    EXPECT_EQ(chaos.lost(), 0u);
}

TEST(ServeChaos, ArrivalIndexPastStreamNeverFires)
{
    ServeSpec spec = drillSpec(100);
    FaultInjector injector(
        CampaignSpec::parse("kill_instance=2@#100000"));
    const ServeReport report = ServeSim(spec).run(&injector);
    EXPECT_EQ(report.instancesKilled, 0u);
    EXPECT_EQ(report.done, report.offered);
}

} // namespace
} // namespace prose
