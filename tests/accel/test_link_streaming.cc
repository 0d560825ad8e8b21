/**
 * @file
 * Tests for the PerfSim link streaming model (StreamMode, on-link
 * compression, multi-tenant shared-link contention): the mode
 * ordering, the infinite-link bit-exactness contract, the
 * bandwidth-wall acceptance point, and the determinism/conservation
 * properties of runShared(). See docs/LINK_MODEL.md.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "accel/perf_sim.hh"
#include "accel/prose_config.hh"
#include "report_match.hh"

namespace prose {
namespace {

/** BestPerf on a finite, link-bound interconnect. */
ProseConfig
linkBoundConfig(StreamMode mode = StreamMode::DoubleBuffered)
{
    ProseConfig config = ProseConfig::bestPerf();
    config.link = LinkSpec::nvlink2At80();
    config.streaming.mode = mode;
    return config;
}

/** One BERT-base layer at batch 8: link-bound on NVLink2-80. */
BertShape
linkBoundShape()
{
    return BertShape{ 1, 768, 12, 3072, 8, 512 };
}

TEST(LinkStreaming, ModesOrderSerializedDoubleBufferedIdeal)
{
    const BertShape shape = linkBoundShape();
    const double serialized =
        PerfSim(linkBoundConfig(StreamMode::Serialized))
            .run(shape)
            .makespan;
    const double buffered =
        PerfSim(linkBoundConfig(StreamMode::DoubleBuffered))
            .run(shape)
            .makespan;
    const double ideal =
        PerfSim(linkBoundConfig(StreamMode::Ideal)).run(shape).makespan;
    EXPECT_GT(serialized, buffered);
    EXPECT_GE(buffered, ideal);
    EXPECT_GT(ideal, 0.0);
}

TEST(LinkStreaming, DoubleBufferingBreaksTheWallByTwentyPercent)
{
    // The PR's acceptance point: on a link-bound shape (one BERT-base
    // layer, batch 8, NVLink2 at 80%), overlapping transfers with
    // compute must cut modeled latency by at least 20% over fully
    // serialized transfers.
    const BertShape shape = linkBoundShape();
    const double serialized =
        PerfSim(linkBoundConfig(StreamMode::Serialized))
            .run(shape)
            .makespan;
    const double buffered =
        PerfSim(linkBoundConfig(StreamMode::DoubleBuffered))
            .run(shape)
            .makespan;
    EXPECT_GE(serialized / buffered, 1.20)
        << "serialized " << serialized << "s vs double-buffered "
        << buffered << "s";
}

TEST(LinkStreaming, InfiniteLinkIsBitExactAcrossModesAndCodecs)
{
    // On the infinite link every stream time is exactly zero, so all
    // three modes (and every codec) must collapse to the identical
    // compute-bound schedule — this is what keeps the legacy
    // infinite-bandwidth sweep points bit-exact after the refactor.
    const BertShape shape{ 2, 768, 12, 3072, 4, 256 };
    ProseConfig reference = ProseConfig::bestPerf();
    reference.link = LinkSpec::infinite();
    reference.streaming.mode = StreamMode::Ideal;
    const SimReport baseline = PerfSim(reference).run(shape);
    EXPECT_EQ(baseline.fillSeconds, 0.0);
    EXPECT_EQ(baseline.drainSeconds, 0.0);

    for (const LinkCompression codec :
         { LinkCompression::None, LinkCompression::ZeroRun,
           LinkCompression::Delta }) {
        // A codec still changes the wire-byte *accounting*, but with
        // zero stream time it must not move the schedule by a single
        // ulp relative to the uncompressed reference.
        ProseConfig ideal = reference;
        ideal.link.compression = codec;
        const SimReport expected = PerfSim(ideal).run(shape);
        EXPECT_EQ(expected.makespan, baseline.makespan);
        EXPECT_EQ(expected.threadFinishSeconds,
                  baseline.threadFinishSeconds);
        EXPECT_EQ(expected.typeBusySeconds, baseline.typeBusySeconds);
        for (const StreamMode mode :
             { StreamMode::Serialized, StreamMode::DoubleBuffered,
               StreamMode::Ideal }) {
            ProseConfig config = ideal;
            config.streaming.mode = mode;
            expectReportsIdentical(expected,
                                   PerfSim(config).run(shape));
        }
    }
}

TEST(LinkStreaming, MakespanMonotoneInBandwidth)
{
    const BertShape shape = linkBoundShape();
    for (const StreamMode mode :
         { StreamMode::Serialized, StreamMode::DoubleBuffered,
           StreamMode::Ideal }) {
        double prev = 1e300;
        for (const double gbps : { 45.0, 90.0, 240.0, 480.0 }) {
            ProseConfig config = linkBoundConfig(mode);
            config.link = LinkSpec::custom(gbps);
            const double makespan = PerfSim(config).run(shape).makespan;
            EXPECT_LE(makespan, prev + 1e-12)
                << toString(mode) << " at " << gbps << " GB/s";
            prev = makespan;
        }
    }
}

TEST(LinkStreaming, CompressionShrinksWireBytesOnly)
{
    const BertShape shape = linkBoundShape();
    const SimReport raw =
        PerfSim(linkBoundConfig()).run(shape);
    EXPECT_EQ(raw.wireBytesIn, raw.bytesIn);
    EXPECT_EQ(raw.wireBytesOut, raw.bytesOut);

    ProseConfig compressed = linkBoundConfig();
    compressed.link.compression = LinkCompression::ZeroRun;
    const SimReport zr = PerfSim(compressed).run(shape);
    // Logical traffic is untouched (the codec is modeled, never
    // functional); only the wire shrinks, and the run gets faster.
    EXPECT_EQ(zr.bytesIn, raw.bytesIn);
    EXPECT_EQ(zr.bytesOut, raw.bytesOut);
    EXPECT_LT(zr.wireBytesIn, raw.wireBytesIn);
    EXPECT_LT(zr.wireBytesOut, raw.wireBytesOut);
    EXPECT_LT(zr.makespan, raw.makespan);
}

TEST(LinkStreaming, SingleTenantRunSharedIsBitExact)
{
    const BertShape shape = linkBoundShape();
    const PerfSim sim(linkBoundConfig());
    const SimReport solo = sim.run(shape);

    std::vector<SimReport> locals;
    const SimReport shared = sim.runShared({ shape }, &locals);
    ASSERT_EQ(locals.size(), 1u);
    EXPECT_EQ(shared.tenantCount, 1u);
    // One tenant never waits on itself, so the shared-channel
    // scheduler must reproduce run() exactly, wait accounting and all.
    EXPECT_EQ(shared.linkWaitSeconds, 0.0);
    expectReportsIdentical(solo, shared);
    expectReportsIdentical(solo, locals[0]);
}

TEST(LinkStreaming, SharedRunsAreDeterministic)
{
    const std::vector<BertShape> tenants{
        linkBoundShape(), BertShape{ 1, 768, 12, 3072, 4, 256 },
        linkBoundShape()
    };
    const PerfSim sim(linkBoundConfig());
    std::vector<SimReport> locals_a, locals_b;
    const SimReport a = sim.runShared(tenants, &locals_a);
    const SimReport b = sim.runShared(tenants, &locals_b);
    expectReportsIdentical(a, b);
    ASSERT_EQ(locals_a.size(), locals_b.size());
    for (std::size_t i = 0; i < locals_a.size(); ++i)
        expectReportsIdentical(locals_a[i], locals_b[i]);
}

TEST(LinkStreaming, ContentionChargesLinkWaitAndSlowsTenants)
{
    const BertShape shape = linkBoundShape();
    const PerfSim sim(linkBoundConfig());
    const SimReport solo = sim.run(shape);

    std::vector<SimReport> locals;
    const SimReport shared = sim.runShared({ shape, shape }, &locals);
    ASSERT_EQ(locals.size(), 2u);
    EXPECT_EQ(shared.tenantCount, 2u);
    // Two identical link-bound tenants must collide on the shared
    // channels: positive arbitration wait, and nobody finishes faster
    // than it would alone (compute is private; only the link couples
    // them).
    EXPECT_GT(shared.linkWaitSeconds, 0.0);
    EXPECT_GE(shared.makespan, solo.makespan);
    for (const SimReport &local : locals) {
        EXPECT_GE(local.makespan, solo.makespan);
        EXPECT_EQ(local.bytesIn, solo.bytesIn);
        EXPECT_EQ(local.bytesOut, solo.bytesOut);
        EXPECT_EQ(local.inferences, solo.inferences);
    }
    // Conservation: the combined report aggregates the tenants.
    EXPECT_EQ(shared.inferences, 2 * solo.inferences);
    EXPECT_EQ(shared.bytesIn, 2 * solo.bytesIn);
    EXPECT_EQ(shared.bytesOut, 2 * solo.bytesOut);
    EXPECT_EQ(shared.taskCount, 2 * solo.taskCount);
}

TEST(LinkStreaming, DeeperPrefetchQueuesHideMoreArbitration)
{
    // Buffer depth bounds the arbitration jitter the prefetcher can
    // absorb, so under contention a deeper queue never stalls the
    // arrays longer than a shallower one.
    const std::vector<BertShape> tenants{ linkBoundShape(),
                                          linkBoundShape() };
    double prev_stall = -1.0;
    for (const std::uint32_t depth : { 2u, 4u }) {
        ProseConfig config = linkBoundConfig();
        config.streaming.bufferDepth = depth;
        const SimReport report = PerfSim(config).runShared(tenants);
        if (prev_stall >= 0.0) {
            EXPECT_LE(report.prefetchStallSeconds, prev_stall + 1e-12);
        }
        prev_stall = report.prefetchStallSeconds;
    }
}

TEST(LinkStreaming, SchedulersAgreeOnSharedRuns)
{
    // The per-resource wait queues and the reference linear scan must
    // produce identical schedules for the contention model too, not
    // just for single-tenant runs.
    const std::vector<BertShape> tenants{
        linkBoundShape(), BertShape{ 1, 768, 12, 3072, 4, 256 }
    };
    ProseConfig config = linkBoundConfig();
    SimOptions recorded;
    recorded.recordSchedule = true;
    SimOptions reference = recorded;
    reference.referenceScheduler = true;
    const SimReport queues = PerfSim(config, recorded).runShared(tenants);
    const SimReport scan = PerfSim(config, reference).runShared(tenants);
    ASSERT_FALSE(queues.schedule.empty());
    expectReportsIdentical(queues, scan);
}

TEST(LinkStreaming, FullSizeWallKeepsItsInvariantsWhereTheyHold)
{
    // The paper point (BestPerf, BERT-base b128 len512) over link_wall's
    // full sweep. Per task the modes order serialized >= double-
    // buffered >= ideal by construction, at every thread count. Once
    // threads outnumber the pools the greedy list scheduler can break
    // that order for the makespan (Graham's anomaly: at 16 and 32
    // threads), and even a faster link can slow it down (serialized at
    // 8 threads, 495 GB/s). So the makespan ordering is pinned at <= 8
    // threads and monotonicity in bandwidth at <= 4.
    const BertShape shape{ 12, 768, 12, 3072, 128, 512 };
    const StreamMode modes[] = { StreamMode::Serialized,
                                 StreamMode::DoubleBuffered,
                                 StreamMode::Ideal };
    SimOptions recorded;
    recorded.recordSchedule = true;
    for (const std::uint32_t threads : { 1u, 2u, 4u, 8u, 16u, 32u }) {
        std::vector<double> prev(3, 1e300);
        for (double gbps = 45.0; gbps <= 630.0 + 1e-9; gbps += 45.0) {
            std::vector<SimReport> runs;
            for (const StreamMode mode : modes) {
                ProseConfig config = ProseConfig::bestPerf();
                config.threads = threads;
                config.link = LinkSpec::custom(gbps);
                config.streaming.mode = mode;
                runs.push_back(PerfSim(config, recorded).run(shape));
            }
            const std::string at = std::to_string(threads) +
                                   " threads, " + std::to_string(gbps) +
                                   " GB/s";
            // Per task: the k-th item of a thread is the same task in
            // every mode.
            ASSERT_FALSE(runs[0].schedule.empty());
            std::vector<std::vector<std::vector<double>>> durations(3);
            for (std::size_t m = 0; m < 3; ++m) {
                durations[m].resize(threads);
                for (const ScheduledItem &item : runs[m].schedule)
                    durations[m][item.thread].push_back(item.end -
                                                        item.start);
            }
            for (std::uint32_t t = 0; t < threads; ++t) {
                ASSERT_EQ(durations[0][t].size(), durations[2][t].size());
                ASSERT_EQ(durations[1][t].size(), durations[2][t].size());
                for (std::size_t k = 0; k < durations[0][t].size(); ++k) {
                    ASSERT_GE(durations[0][t][k] + 1e-12,
                              durations[1][t][k])
                        << at;
                    ASSERT_GE(durations[1][t][k] + 1e-12,
                              durations[2][t][k])
                        << at;
                }
            }
            if (threads <= 8) {
                EXPECT_GE(runs[0].makespan + 1e-12, runs[1].makespan) << at;
                EXPECT_GE(runs[1].makespan + 1e-12, runs[2].makespan) << at;
            }
            for (std::size_t m = 0; m < 3; ++m) {
                if (threads <= 4) {
                    EXPECT_LE(runs[m].makespan, prev[m] + 1e-12) << at;
                }
                prev[m] = runs[m].makespan;
            }
        }
    }
}

} // namespace
} // namespace prose
