/**
 * @file
 * Tests for fault recovery across the stack: PerfSim link retries and
 * array failover, ProseSystem degraded-instance re-sharding, and the
 * guarantee that a disabled injector is bit-identical to no injector.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "accel/system.hh"
#include "common/random.hh"
#include "systolic/functional_sim.hh"

namespace prose {
namespace {

const BertShape kSmallShape{ 2, 256, 4, 1024, 4, 64 };

SimReport
runWith(const ProseConfig &config, SimOptions options,
        const BertShape &shape = kSmallShape)
{
    PerfSim sim(config, options);
    return sim.run(shape);
}

TEST(FaultRecovery, NullInjectorIsBitIdenticalInPerfSim)
{
    const ProseConfig config = ProseConfig::bestPerf();
    const SimReport plain = PerfSim(config).run(kSmallShape);
    const SimReport with_null = runWith(config, SimOptions{});
    EXPECT_EQ(plain.makespan, with_null.makespan);
    EXPECT_EQ(plain.taskCount, with_null.taskCount);
    EXPECT_EQ(with_null.linkTransferErrors, 0u);
    EXPECT_EQ(with_null.linkTimeouts, 0u);
    EXPECT_EQ(with_null.taskRetries, 0u);
    EXPECT_EQ(with_null.abandonedTransfers, 0u);
    EXPECT_EQ(with_null.retrySeconds, 0.0);
    EXPECT_EQ(with_null.deadArrays[0], 0u);
}

TEST(FaultRecovery, DisabledInjectionIsBitIdenticalInFunctionalSim)
{
    Rng rng(3);
    Matrix a(40, 64), b(64, 40);
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);

    FunctionalSimulator plain;
    const Matrix reference = plain.dataflow2(a, b, 0.5f, nullptr);

    FunctionalSimulator configured;
    configured.setFaultInjector(nullptr);
    configured.setAbft(AbftOptions{}); // enabled = false
    const Matrix out = configured.dataflow2(a, b, 0.5f, nullptr);
    EXPECT_EQ(Matrix::maxAbsDiff(reference, out), 0.0f);
    EXPECT_EQ(configured.abftStats().tilesChecked, 0u);
}

TEST(FaultRecovery, AbftRepairsInjectedFlipsEndToEnd)
{
    Rng rng(4);
    Matrix a(96, 128), b(128, 96);
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);

    FunctionalSimulator clean;
    const Matrix reference = clean.dataflow1(a, b, 1.0f, nullptr);

    CampaignSpec spec;
    spec.seed = 9;
    spec.accFlipRate = 5e-4;

    // Unprotected: the flips reach the output.
    FaultInjector raw_injector(spec);
    FunctionalSimulator unprotected;
    unprotected.setFaultInjector(&raw_injector);
    const Matrix corrupted = unprotected.dataflow1(a, b, 1.0f, nullptr);
    ASSERT_FALSE(raw_injector.events().empty());
    EXPECT_GT(Matrix::maxAbsDiff(reference, corrupted), 0.0f);

    // Protected: every located flip is repaired before the drain, so
    // the output returns to (at worst) one bf16 output ulp.
    FaultInjector injector(spec);
    AbftOptions abft;
    abft.enabled = true;
    FunctionalSimulator protectedSim;
    protectedSim.setFaultInjector(&injector);
    protectedSim.setAbft(abft);
    const Matrix repaired = protectedSim.dataflow1(a, b, 1.0f, nullptr);
    EXPECT_LE(Matrix::maxAbsDiff(reference, repaired), 0.25f);
    EXPECT_GT(protectedSim.abftStats().tilesFlagged, 0u);
    EXPECT_GT(protectedSim.abftStats().correctedElements, 0u);
}

TEST(FaultRecovery, RetryChargesLatencyAndCounts)
{
    const ProseConfig config = ProseConfig::bestPerf();
    const SimReport healthy = PerfSim(config).run(kSmallShape);

    CampaignSpec spec;
    spec.seed = 1;
    spec.linkErrorRate = 1.0;
    FaultInjector injector(spec);
    SimOptions options;
    options.injector = &injector;
    options.retry.maxAttempts = 2;
    const SimReport report = runWith(config, options);

    EXPECT_GT(report.taskRetries, 0u);
    EXPECT_GT(report.abandonedTransfers, 0u);
    // With every attempt faulting, each error is answered by either a
    // retry or an abandonment.
    EXPECT_EQ(report.linkTransferErrors,
              report.taskRetries + report.abandonedTransfers);
    EXPECT_GT(report.retrySeconds, 0.0);
    EXPECT_GT(report.makespan, healthy.makespan);
}

TEST(FaultRecovery, TimeoutsChargeDetectionCost)
{
    const ProseConfig config = ProseConfig::bestPerf();
    const SimReport healthy = PerfSim(config).run(kSmallShape);

    CampaignSpec spec;
    spec.seed = 1;
    spec.linkTimeoutRate = 1.0;
    FaultInjector injector(spec);
    SimOptions options;
    options.injector = &injector;
    const SimReport report = runWith(config, options);

    EXPECT_GT(report.linkTimeouts, 0u);
    EXPECT_EQ(report.linkTransferErrors, 0u);
    EXPECT_GT(report.retrySeconds, 0.0);
    EXPECT_GT(report.makespan, healthy.makespan);
}

TEST(FaultRecovery, RetryPolicyBacksOffExponentially)
{
    RetryPolicy policy;
    policy.backoffSeconds = 10e-6;
    policy.backoffFactor = 2.0;
    EXPECT_DOUBLE_EQ(policy.delayFor(0), 10e-6);
    EXPECT_DOUBLE_EQ(policy.delayFor(1), 20e-6);
    EXPECT_DOUBLE_EQ(policy.delayFor(3), 80e-6);
}

TEST(FaultRecovery, ArrayFailoverDegradesButCompletes)
{
    const ProseConfig config = ProseConfig::bestPerf(); // 2 M arrays
    const SimReport healthy = PerfSim(config).run(kSmallShape);

    CampaignSpec spec;
    spec.arrayKills = { ArrayKill{ 'M', 0, 0.0 } };
    FaultInjector injector(spec);
    SimOptions options;
    options.injector = &injector;
    const SimReport report = runWith(config, options);

    EXPECT_EQ(report.deadArrays[0], 1u);
    EXPECT_GT(report.makespan, healthy.makespan);
    EXPECT_GT(report.inferencesPerSecond(), 0.0);
    EXPECT_EQ(report.taskCount, healthy.taskCount);
}

TEST(FaultRecoveryDeathTest, KillingEveryArrayOfATypeIsFatal)
{
    const ProseConfig config = ProseConfig::bestPerf();
    CampaignSpec spec;
    spec.arrayKills = { ArrayKill{ 'M', 0, 0.0 },
                        ArrayKill{ 'M', 1, 0.0 } };
    FaultInjector injector(spec);
    SimOptions options;
    options.injector = &injector;
    EXPECT_EXIT(runWith(config, options), testing::ExitedWithCode(1),
                "nothing left to fail over");
}

TEST(FaultRecovery, SystemNullInjectorIsBitIdentical)
{
    const ProseSystem system{ SystemConfig{} };
    const BertShape shape{ 2, 256, 4, 1024, 8, 64 };
    const SystemReport plain = system.run(shape);
    const SystemReport with_null = system.run(shape, nullptr);
    EXPECT_EQ(plain.makespan, with_null.makespan);
    EXPECT_EQ(plain.systemWatts, with_null.systemWatts);
    EXPECT_EQ(with_null.failedInstances, 0u);
    EXPECT_EQ(with_null.reshardedInferences, 0u);
    EXPECT_DOUBLE_EQ(with_null.throughputRetention, 1.0);
}

TEST(FaultRecovery, InstanceDeathReshardsOntoSurvivors)
{
    const ProseSystem system{ SystemConfig{} };
    const BertShape shape{ 2, 256, 4, 1024, 16, 64 };
    const SystemReport healthy = system.run(shape);

    CampaignSpec spec;
    spec.instanceKills = { InstanceKill{ 1, healthy.makespan * 0.3 } };
    FaultInjector injector(spec);
    const SystemReport report = system.run(shape, &injector);

    EXPECT_EQ(report.failedInstances, 1u);
    EXPECT_GT(report.reshardedInferences, 0u);
    EXPECT_GT(report.reshardSeconds, 0.0);
    EXPECT_GT(report.makespan, healthy.makespan);
    EXPECT_LT(report.throughputRetention, 1.0);
    EXPECT_GT(report.throughputRetention, 0.0);
    EXPECT_GT(report.inferencesPerSecond(), 0.0);
    // The survivors' recovery wave shows up as extra per-instance runs.
    EXPECT_GT(report.perInstance.size(), healthy.perInstance.size());
}

TEST(FaultRecovery, ReshardedTailCompletionTimesLandAfterTheDeath)
{
    // Regression for the per-inference completion times under a kill:
    // every inference must get a completion stamp, the last one must be
    // the (degraded) makespan, and the recovery wave's stamps must all
    // land at or after the moment of death.
    const ProseSystem system{ SystemConfig{} };
    const BertShape shape{ 2, 256, 4, 1024, 16, 64 };
    const SystemReport healthy = system.run(shape);
    ASSERT_EQ(healthy.completionSeconds.size(), healthy.inferences);

    const double death = healthy.makespan * 0.3;
    CampaignSpec spec;
    spec.instanceKills = { InstanceKill{ 1, death } };
    FaultInjector injector(spec);
    const SystemReport report = system.run(shape, &injector);

    ASSERT_EQ(report.completionSeconds.size(), report.inferences);
    double last = 0.0;
    std::size_t after_death = 0;
    for (const double end : report.completionSeconds) {
        EXPECT_GT(end, 0.0);
        EXPECT_LE(end, report.makespan);
        last = std::max(last, end);
        if (end > death)
            ++after_death;
    }
    EXPECT_DOUBLE_EQ(last, report.makespan);
    // The resharded work (and only slightly less than a full wave of
    // it) completes in the degraded tail past the death.
    EXPECT_GE(after_death, report.reshardedInferences);
    EXPECT_GT(report.makespan, healthy.makespan);
}

/** BERT-base b32 len128: four shards of eight inferences. */
const BertShape kFleetShape{ 12, 768, 12, 3072, 32, 128 };

/** Every inference stamped once, none past the makespan, the last at
 *  it exactly. */
void
expectStampsCoverTheBatch(const SystemReport &report)
{
    ASSERT_EQ(report.completionSeconds.size(), report.inferences);
    double last = 0.0;
    for (const double end : report.completionSeconds) {
        EXPECT_GT(end, 0.0);
        EXPECT_LE(end, report.makespan);
        last = std::max(last, end);
    }
    EXPECT_EQ(last, report.makespan);
}

TEST(FaultRecovery, KillKeepsOnlyWhatPerfSimFinishedBeforeIt)
{
    // Half-way through the healthy makespan instance 1 has finished
    // none of its shard: PerfSim's first end time is later than that.
    const ProseSystem system{ SystemConfig{} };
    const SystemReport healthy = system.run(kFleetShape);
    const SimReport &shard = healthy.perInstance[1];
    ASSERT_EQ(shard.inferenceEndSeconds.size(), 8u);
    const double death = 0.5 * healthy.makespan;
    ASSERT_LT(death, shard.inferenceEndSeconds.front());

    CampaignSpec spec;
    spec.instanceKills = { InstanceKill{ 1, death } };
    FaultInjector injector(spec);
    const SystemReport report = system.run(kFleetShape, &injector);

    EXPECT_EQ(report.failedInstances, 1u);
    EXPECT_EQ(report.reshardedInferences, 8u);
    expectStampsCoverTheBatch(report);
    for (std::size_t k = 0; k < 8; ++k)
        EXPECT_GE(report.completionSeconds[8 + k],
                  shard.inferenceEndSeconds[k]);
    // The survivors' shards are untouched.
    for (const std::size_t k : { 0u, 16u, 24u })
        EXPECT_EQ(report.completionSeconds[k],
                  healthy.completionSeconds[k]);
    EXPECT_EQ(report.reshardSeconds,
              report.makespan - healthy.makespan);
}

TEST(FaultRecovery, KillDuringTheReshardIsHonoured)
{
    const ProseSystem system{ SystemConfig{} };
    const SystemReport healthy = system.run(kFleetShape);
    CampaignSpec spec;
    spec.instanceKills = { InstanceKill{ 1, 0.5 * healthy.makespan } };
    FaultInjector single_injector(spec);
    const SystemReport single = system.run(kFleetShape, &single_injector);

    // Instance 2 dies inside the recovery wave, which starts at the
    // healthy makespan: its share of the wave is re-sharded again.
    spec.instanceKills.push_back(InstanceKill{ 2, 1.05 * healthy.makespan });
    FaultInjector double_injector(spec);
    const SystemReport twice = system.run(kFleetShape, &double_injector);

    EXPECT_EQ(twice.failedInstances, 2u);
    EXPECT_GT(twice.reshardedInferences, single.reshardedInferences);
    EXPECT_GT(twice.makespan, single.makespan);
    EXPECT_LT(twice.throughputRetention, single.throughputRetention);
    expectStampsCoverTheBatch(twice);
    // Three waves: four shards, three survivors, then two.
    EXPECT_EQ(twice.perInstance.size(), 4u + 3u + 2u);
}

TEST(FaultRecovery, UnevenHostShareKeepsTheHostsPerSlotRate)
{
    // Three survivors share the 16-slot host: 5 slots each, one idle.
    // Each share runs at the whole host's per-slot rate, so a recovery
    // shard takes exactly as long as on a 5-slot host of that rate, not
    // less (as it would if the idle slot's throughput were spread over
    // the shares).
    const SystemConfig config;
    const ProseSystem system{ config };
    const SystemReport healthy = system.run(kFleetShape);
    CampaignSpec spec;
    spec.instanceKills = { InstanceKill{ 1, 0.5 * healthy.makespan } };
    FaultInjector injector(spec);
    const SystemReport report = system.run(kFleetShape, &injector);
    ASSERT_EQ(report.perInstance.size(), 4u + 3u);

    HostSpec share;
    share.slots = 5;
    share.elemThroughput = 5 * HostSpec{}.slotThroughput();
    BertShape slice = kFleetShape;
    slice.batch = 3; // 8 dropped inferences over 3 survivors: 3, 3, 2
    SimOptions options;
    options.host = HostModel(share);
    const PerfSim sim(config.instance, options);
    const SimReport want = sim.run(slice);
    EXPECT_EQ(report.perInstance[4].makespan, want.makespan);
    EXPECT_EQ(report.perInstance[4].hostBusySeconds, want.hostBusySeconds);
}

TEST(FaultRecovery, ArrivalIndexedKillFiresAtTheStartOfAClosedBatch)
{
    const ProseSystem system{ SystemConfig{} };
    const SystemReport healthy = system.run(kFleetShape);
    FaultInjector injector(CampaignSpec::parse("kill_instance=3@#5"));
    const SystemReport report = system.run(kFleetShape, &injector);

    EXPECT_EQ(report.failedInstances, 1u);
    EXPECT_EQ(report.reshardedInferences, 8u);
    EXPECT_EQ(report.reshardSeconds,
              report.makespan - healthy.makespan);
    expectStampsCoverTheBatch(report);
}

TEST(FaultRecoveryDeathTest, KillingEveryInstanceIsFatal)
{
    const ProseSystem system{ SystemConfig{} };
    CampaignSpec spec;
    for (std::uint32_t i = 0; i < 4; ++i)
        spec.instanceKills.push_back(InstanceKill{ i, 0.0 });
    FaultInjector injector(spec);
    const BertShape shape{ 2, 256, 4, 1024, 8, 64 };
    EXPECT_EXIT(system.run(shape, &injector), testing::ExitedWithCode(1),
                "nothing left to re-shard");
}

TEST(FaultRecovery, CampaignReplayReproducesSystemRun)
{
    const ProseSystem system{ SystemConfig{} };
    const BertShape shape{ 2, 256, 4, 1024, 8, 64 };
    const CampaignSpec spec = CampaignSpec::parse(
        "seed=42 link_error_rate=0.05 link_timeout_rate=0.01 "
        "kill_array=E:0@1e-4 kill_instance=2@1e-3");

    FaultInjector first(spec), second(spec);
    const SystemReport a = system.run(shape, &first);
    const SystemReport b = system.run(shape, &second);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.taskRetries, b.taskRetries);
    EXPECT_EQ(a.reshardedInferences, b.reshardedInferences);
    EXPECT_EQ(first.eventLogText(), second.eventLogText());
    EXPECT_FALSE(first.eventLogText().empty());
}

} // namespace
} // namespace prose
