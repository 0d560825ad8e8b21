/** @file Tests for admission control, the retry policy, and the
 *  open-loop serving simulator under healthy (chaos-free) load. */

#include <gtest/gtest.h>

#include "serve/serve_sim.hh"

namespace prose {
namespace {

/** Small model + modest stream so the suite stays fast. */
ServeSpec
smallSpec(std::uint64_t count = 400)
{
    ServeSpec spec;
    spec.model = BertShape{ 1, 256, 4, 1024, 1, 64 };
    spec.batcher.buckets = { 128, 256 };
    spec.batcher.maxBatch = 4;
    spec.arrivals.seed = 7;
    spec.arrivals.count = count;
    spec.arrivals.minResidues = 126;
    spec.arrivals.maxResidues = 126;

    // Derive load and SLO from the modeled service time so the test
    // does not bake in platform-specific latency constants.
    const ServiceModel model(spec.instance, spec.model,
                             spec.dispatchOverheadSeconds);
    spec.arrivals.ratePerSecond =
        0.5 * model.capacityPerSecond(128, spec.batcher.maxBatch,
                                      spec.instanceCount);
    spec.sloSeconds = 6.0 * model.seconds(128, spec.batcher.maxBatch);
    return spec;
}

TEST(Admission, DecisionTable)
{
    AdmissionSpec spec;
    spec.maxQueueDepth = 4;
    Request request;
    request.deadlineSeconds = 1.0;
    // Reachable deadline, room in the queue.
    EXPECT_EQ(admit(spec, request, 0.0, 2, 0.5),
              AdmissionDecision::Admit);
    // Hopeless deadline: even a solo dispatch lands late.
    EXPECT_EQ(admit(spec, request, 0.8, 2, 0.5),
              AdmissionDecision::ShedSelf);
    // Full queue: evict the oldest instead of the newcomer.
    EXPECT_EQ(admit(spec, request, 0.0, 4, 0.5),
              AdmissionDecision::ShedOldest);
    // Unbounded queue never sheds for depth.
    spec.maxQueueDepth = 0;
    EXPECT_EQ(admit(spec, request, 0.0, 50000, 0.5),
              AdmissionDecision::Admit);
}

TEST(RetryPolicy, BackoffGrowsAndJitterIsDeterministic)
{
    RetryPolicy retry;
    retry.backoffSeconds = 1e-4;
    retry.backoffFactor = 2.0;
    retry.jitterFraction = 0.5;
    const double first = retry.delayFor(0, 42, 7);
    const double second = retry.delayFor(1, 42, 7);
    EXPECT_GE(first, 1e-4);
    EXPECT_LE(first, 1.5e-4);
    EXPECT_GT(second, first); // exponential growth dominates jitter
    // Same (seed, id, retry) -> same jitter; different id -> different.
    EXPECT_DOUBLE_EQ(retry.delayFor(0, 42, 7), first);
    EXPECT_NE(retry.delayFor(0, 42, 8), first);
    retry.jitterFraction = 0.0;
    EXPECT_DOUBLE_EQ(retry.delayFor(2, 42, 7), 4e-4);
}

TEST(RetryPolicyDeathTest, Validation)
{
    RetryPolicy zero;
    zero.maxAttempts = 0;
    EXPECT_EXIT(zero.validate(), testing::ExitedWithCode(1),
                "max_attempts");
    RetryPolicy shrink;
    shrink.backoffFactor = 0.5;
    EXPECT_EXIT(shrink.validate(), testing::ExitedWithCode(1),
                "backoff factor");
    RetryPolicy jitter;
    jitter.jitterFraction = 2.0;
    EXPECT_EXIT(jitter.validate(), testing::ExitedWithCode(1),
                "jitter");
}

TEST(ServeSpecDeathTest, Validation)
{
    ServeSpec slo = smallSpec();
    slo.sloSeconds = 0.0;
    EXPECT_EXIT(ServeSim{ slo }, testing::ExitedWithCode(1),
                "SLO must be");
    ServeSpec none = smallSpec();
    none.instanceCount = 0;
    EXPECT_EXIT(ServeSim{ none }, testing::ExitedWithCode(1),
                "zero instances");
}

TEST(ServeSim, HealthyRunServesEverythingInSlo)
{
    const ServeSim sim(smallSpec());
    const ServeReport report = sim.run();
    EXPECT_EQ(report.offered, 400u);
    EXPECT_EQ(report.done, 400u);
    EXPECT_EQ(report.timedOut, 0u);
    EXPECT_EQ(report.shed, 0u);
    EXPECT_EQ(report.lost(), 0u);
    EXPECT_EQ(report.retries, 0u);
    EXPECT_EQ(report.instancesKilled, 0u);
    EXPECT_DOUBLE_EQ(report.sloAttainment, 1.0);
    EXPECT_GT(report.batches, 0u);
    EXPECT_GT(report.goodputPerSecond, 0.0);
    EXPECT_EQ(report.latencies.size(), 400u);
    EXPECT_GT(report.p50Seconds, 0.0);
    EXPECT_LE(report.p50Seconds, report.p99Seconds);
    EXPECT_LE(report.p99Seconds, report.p999Seconds);
    EXPECT_GT(report.meanBatchFill, 0.0);
    EXPECT_LE(report.meanBatchFill, 1.0);
}

TEST(ServeSim, ReplayIsBitIdentical)
{
    const ServeSim sim(smallSpec());
    const ServeReport a = sim.run();
    const ServeReport b = sim.run();
    EXPECT_EQ(a.describe(), b.describe());
    ASSERT_EQ(a.latencies.size(), b.latencies.size());
    for (std::size_t i = 0; i < a.latencies.size(); ++i)
        EXPECT_EQ(a.latencies[i], b.latencies[i]);
    // A null injector reproduces the chaos-free run exactly.
    const ServeReport c = sim.run(nullptr);
    EXPECT_EQ(a.describe(), c.describe());
}

TEST(ServeSim, SharedLinkTenancySlowsServiceNotThroughputAccounting)
{
    // Two tenants per host: each dispatch is served at the contended
    // rate from PerfSim::runShared, so latency can only move up, the
    // request accounting must still conserve, and the whole thing
    // stays deterministic (the service model memoizes shared points
    // like solo ones).
    ServeSpec solo = smallSpec();
    ServeSpec shared = smallSpec();
    shared.linkTenantsPerHost = 2;
    const ServeReport solo_report = ServeSim(solo).run();
    const ServeSim shared_sim(shared);
    const ServeReport a = shared_sim.run();
    EXPECT_EQ(a.offered, solo_report.offered);
    EXPECT_EQ(a.lost(), 0u);
    EXPECT_GE(a.p50Seconds, solo_report.p50Seconds);
    EXPECT_GE(a.linkWaitSeconds, 0.0);
    EXPECT_EQ(solo_report.linkWaitSeconds, 0.0);

    const ServeReport b = shared_sim.run();
    EXPECT_EQ(a.describe(), b.describe());
}

TEST(ServeSpecDeathTest, RejectsZeroLinkTenants)
{
    ServeSpec spec = smallSpec();
    spec.linkTenantsPerHost = 0;
    EXPECT_DEATH(spec.validate(), "tenant");
}

TEST(ServeSim, OverloadShedsInsteadOfCollapsing)
{
    ServeSpec spec = smallSpec(600);
    const ServiceModel model(spec.instance, spec.model,
                             spec.dispatchOverheadSeconds);
    // Offer 3x sustainable load with a short bounded queue.
    spec.arrivals.ratePerSecond =
        3.0 * model.capacityPerSecond(128, spec.batcher.maxBatch,
                                      spec.instanceCount);
    spec.admission.maxQueueDepth = 16;
    spec.batcher.overloadDepth = 8;
    const ServeReport report = ServeSim(spec).run();
    EXPECT_EQ(report.lost(), 0u);
    EXPECT_GT(report.shed, 0u);   // load shedding engaged
    EXPECT_GT(report.done, 0u);   // but goodput survived
    EXPECT_LE(report.maxQueueDepthSeen, 16u);
    // Everything that completed still met its deadline.
    EXPECT_EQ(report.completedLate, 0u);
    for (const double latency : report.latencies)
        EXPECT_LE(latency, spec.sloSeconds + 1e-12);
}

TEST(ServeSim, DeadlineAwareAdmissionShedsHopelessRequests)
{
    ServeSpec spec = smallSpec(100);
    // An SLO tighter than one solo dispatch: every request is hopeless
    // at admission; the front end must reject all of them crisply.
    const ServiceModel model(spec.instance, spec.model,
                             spec.dispatchOverheadSeconds);
    spec.sloSeconds = 0.5 * model.seconds(128, 1);
    const ServeReport report = ServeSim(spec).run();
    EXPECT_EQ(report.done, 0u);
    EXPECT_EQ(report.shedAdmission, 100u);
    EXPECT_EQ(report.lost(), 0u);
    EXPECT_EQ(report.batches, 0u);
}

TEST(ServeSim, DescribeCarriesTheHeadlineNumbers)
{
    const ServeReport report = ServeSim(smallSpec(50)).run();
    const std::string text = report.describe();
    EXPECT_NE(text.find("offered=50"), std::string::npos);
    EXPECT_NE(text.find("lost=0"), std::string::npos);
    EXPECT_NE(text.find("goodput:"), std::string::npos);
    EXPECT_NE(text.find("p99="), std::string::npos);
}

} // namespace
} // namespace prose
