/** @file Tests for the discrete-event performance simulator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include "accel/perf_sim.hh"
#include "report_match.hh"

namespace prose {
namespace {

BertShape
smallShape(std::uint64_t batch = 8, std::uint64_t len = 128)
{
    return BertShape{ 2, 768, 12, 3072, batch, len };
}

TEST(PerfSim, ProducesPositiveMakespan)
{
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport report = sim.run(smallShape());
    EXPECT_GT(report.makespan, 0.0);
    EXPECT_GT(report.taskCount, 0u);
    EXPECT_GT(report.totalFlops, 0.0);
    EXPECT_EQ(report.inferences, 8u);
}

TEST(PerfSim, PerInferenceEndTimesCoverTheBatch)
{
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport report = sim.run(smallShape(7));
    ASSERT_EQ(report.inferenceEndSeconds.size(), report.inferences);
    ASSERT_FALSE(report.threadFinishSeconds.empty());
    const double slowest = *std::max_element(
        report.threadFinishSeconds.begin(),
        report.threadFinishSeconds.end());
    EXPECT_DOUBLE_EQ(slowest, report.makespan);
    double last = 0.0;
    for (const double end : report.inferenceEndSeconds) {
        EXPECT_GT(end, 0.0);
        EXPECT_LE(end, report.makespan);
        last = std::max(last, end);
    }
    EXPECT_DOUBLE_EQ(last, report.makespan);
}

TEST(PerfSim, DeterministicAcrossRuns)
{
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport a = sim.run(smallShape());
    const SimReport b = sim.run(smallShape());
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.bytesIn, b.bytesIn);
}

TEST(PerfSim, MoreBandwidthNeverSlower)
{
    ProseConfig slow = ProseConfig::bestPerf();
    slow.link = LinkSpec::nvlink2At80();
    ProseConfig fast = ProseConfig::bestPerf();
    fast.link = LinkSpec::nvlink3At90();
    fast.lanes = LanePartition{ 6, 2, 4 }; // 12-lane link
    const SimReport s = PerfSim(slow).run(smallShape());
    const SimReport f = PerfSim(fast).run(smallShape());
    EXPECT_LE(f.makespan, s.makespan * 1.0001);
}

TEST(PerfSim, InfiniteBandwidthIsComputeBound)
{
    ProseConfig config = ProseConfig::bestPerf();
    config.link = LinkSpec::infinite();
    const SimReport report = PerfSim(config).run(smallShape());
    EXPECT_GT(report.makespan, 0.0);
    // Utilization of the busiest type should be meaningful once the
    // link is out of the picture.
    const double best_util =
        std::max({ report.utilization(ArrayType::M),
                   report.utilization(ArrayType::G),
                   report.utilization(ArrayType::E) });
    EXPECT_GT(best_util, 0.2);
}

TEST(PerfSim, MultithreadingImprovesThroughput)
{
    // Figure 8: more threads -> fewer data-dependency bubbles.
    ProseConfig one = ProseConfig::bestPerf();
    one.threads = 1;
    ProseConfig many = ProseConfig::bestPerf();
    many.threads = 32;
    const BertShape shape = smallShape(32, 128);
    const double t1 = PerfSim(one).run(shape).makespan;
    const double t32 = PerfSim(many).run(shape).makespan;
    EXPECT_LT(t32, t1 * 0.7);
}

TEST(PerfSim, UtilizationBounded)
{
    PerfSim sim(ProseConfig::mostEfficient());
    const SimReport report = sim.run(smallShape());
    for (ArrayType type : { ArrayType::M, ArrayType::G, ArrayType::E }) {
        EXPECT_GE(report.utilization(type), 0.0);
        EXPECT_LE(report.utilization(type), 1.0);
    }
    EXPECT_GE(report.cpuDuty, 0.0);
    EXPECT_LE(report.cpuDuty, 1.0);
}

TEST(PerfSim, BytesMatchTaskAccounting)
{
    // Conservation: simulator traffic equals the per-task sums.
    const BertShape shape = smallShape(4, 64);
    ProseConfig config = ProseConfig::bestPerf();
    config.threads = 4;
    PerfSim sim(config);
    const SimReport report = sim.run(shape);

    TimingModel timing(config.partialInputBuffer);
    std::uint64_t bytes_in = 0, bytes_out = 0;
    DataflowBuilder builder;
    for (int t = 0; t < 4; ++t) {
        BertShape slice = shape;
        slice.batch = 1;
        for (const auto &task :
             builder.build(synthesizeBertTrace(slice))) {
            if (task.kind == DataflowKind::Host)
                continue;
            ArrayGeometry geom = ArrayGeometry::mType(64);
            if (task.kind == DataflowKind::Dataflow2)
                geom = ArrayGeometry::gType(16);
            if (task.kind == DataflowKind::Dataflow3)
                geom = ArrayGeometry::eType(16);
            const TaskCost cost = timing.costTask(task, geom);
            bytes_in += cost.bytesIn;
            bytes_out += cost.bytesOut;
        }
    }
    EXPECT_EQ(report.bytesIn, bytes_in);
    EXPECT_EQ(report.bytesOut, bytes_out);
}

TEST(PerfSim, ScheduleRecordsWhenRequested)
{
    SimOptions options;
    options.recordSchedule = true;
    PerfSim sim(ProseConfig::bestPerf(), options);
    const SimReport report = sim.run(smallShape(2, 32));
    ASSERT_EQ(report.schedule.size(), report.taskCount);
    for (const auto &item : report.schedule) {
        EXPECT_GE(item.end, item.start);
        if (item.kind != DataflowKind::Host)
            EXPECT_GE(item.arrayIndex, 0);
        else
            EXPECT_EQ(item.arrayIndex, -1);
    }
}

TEST(PerfSim, TasksOnOneThreadNeverOverlap)
{
    SimOptions options;
    options.recordSchedule = true;
    ProseConfig config = ProseConfig::bestPerf();
    config.threads = 4;
    PerfSim sim(config, options);
    const SimReport report = sim.run(smallShape(4, 64));

    std::map<std::uint32_t, double> last_end;
    std::map<std::uint32_t, std::vector<ScheduledItem>> per_thread;
    for (const auto &item : report.schedule)
        per_thread[item.thread].push_back(item);
    for (auto &[thread, items] : per_thread) {
        std::sort(items.begin(), items.end(),
                  [](const auto &a, const auto &b) {
                      return a.start < b.start;
                  });
        for (std::size_t i = 1; i < items.size(); ++i)
            EXPECT_GE(items[i].start, items[i - 1].end - 1e-12);
    }
}

TEST(PerfSim, PoolsNeverDoubleBooked)
{
    SimOptions options;
    options.recordSchedule = true;
    PerfSim sim(ProseConfig::mostEfficient(), options);
    const SimReport report = sim.run(smallShape(8, 64));

    std::map<int, std::vector<ScheduledItem>> per_pool;
    for (const auto &item : report.schedule)
        if (item.arrayIndex >= 0)
            per_pool[item.arrayIndex].push_back(item);
    for (auto &[pool, items] : per_pool) {
        std::sort(items.begin(), items.end(),
                  [](const auto &a, const auto &b) {
                      return a.start < b.start;
                  });
        // The pool frees at poolEnd (a Dataflow 3's host-softmax tail
        // only blocks its issuing thread, not the pool).
        for (std::size_t i = 1; i < items.size(); ++i)
            EXPECT_GE(items[i].start, items[i - 1].poolEnd - 1e-12);
    }
}

TEST(PerfSim, DataflowsLandOnTheirTypes)
{
    SimOptions options;
    options.recordSchedule = true;
    const ProseConfig config = ProseConfig::bestPerf();
    PerfSim sim(config, options);
    const SimReport report = sim.run(smallShape(2, 32));
    for (const auto &item : report.schedule) {
        if (item.arrayIndex < 0)
            continue;
        EXPECT_EQ(static_cast<std::size_t>(item.arrayIndex),
                  typeIndex(arrayTypeFor(item.kind)));
    }
}

TEST(PerfSim, BatchSmallerThanThreadsStillRuns)
{
    ProseConfig config = ProseConfig::bestPerf();
    config.threads = 32;
    const SimReport report = PerfSim(config).run(smallShape(3, 32));
    EXPECT_EQ(report.inferences, 3u);
    EXPECT_GT(report.makespan, 0.0);
}

TEST(PerfSim, ConfigDrivesTheTrafficModel)
{
    // PerfSim(config) must honor partialInputBuffer: without the reuse
    // buffer the operand restreams make the run slower and move more
    // bytes.
    ProseConfig with_buffer = ProseConfig::bestPerf();
    ProseConfig without = with_buffer;
    without.partialInputBuffer = false;
    const BertShape shape = smallShape(8, 256);
    const SimReport a = PerfSim(with_buffer).run(shape);
    const SimReport b = PerfSim(without).run(shape);
    EXPECT_GT(b.bytesIn, a.bytesIn);
    EXPECT_GT(b.makespan, a.makespan);
}

TEST(PerfSim, IoLockSpacesDispatchesOnAPool)
{
    // The Section 3.1 trade-off: every dispatch holds its type's I/O
    // buffer mutex for 5 us, so two dispatches on one pool never start
    // closer than that however many threads contend for it.
    ProseConfig config = ProseConfig::bestPerf();
    config.threads = 32;
    SimOptions options;
    options.recordSchedule = true;
    const SimReport report = PerfSim(config, options).run(smallShape(32, 64));
    std::array<std::vector<double>, 3> starts;
    for (const ScheduledItem &item : report.schedule)
        if (item.arrayIndex >= 0)
            starts[static_cast<std::size_t>(item.arrayIndex)].push_back(
                item.start);
    for (std::vector<double> &pool : starts) {
        ASSERT_GT(pool.size(), 1u);
        std::sort(pool.begin(), pool.end());
        for (std::size_t i = 1; i < pool.size(); ++i)
            EXPECT_GE(pool[i] - pool[i - 1], 5e-6 * (1.0 - 1e-9)) << i;
    }
}

TEST(PerfSim, DecoderWorkloadRuns)
{
    // The translation extension: a 6-layer decoder stack over a
    // 512-token encoder memory.
    DecoderShape shape;
    shape.layers = 2;
    shape.batch = 8;
    shape.targetLen = 64;
    shape.sourceLen = 256;
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport report = sim.runDecoder(shape);
    EXPECT_GT(report.makespan, 0.0);
    EXPECT_EQ(report.inferences, 8u);
    const double expected = synthesizeDecoderTrace(shape).totalFlops();
    EXPECT_NEAR(report.totalFlops, expected, expected * 1e-12);
}

TEST(PerfSim, DecoderCrossAttentionCostsGrowWithMemory)
{
    DecoderShape small;
    small.layers = 2;
    small.batch = 8;
    small.targetLen = 64;
    small.sourceLen = 128;
    DecoderShape large = small;
    large.sourceLen = 1024;
    PerfSim sim(ProseConfig::bestPerf());
    EXPECT_LT(sim.runDecoder(small).makespan,
              sim.runDecoder(large).makespan);
}

/**
 * Run one workload under the wait-queue scheduler and the reference
 * scan (each with its own injector, if any) and demand identical
 * reports. `run(sim, per_tenant)` returns the combined report and may
 * fill per-tenant reports, which must agree too.
 */
template <typename RunFn>
void
expectSchedulersAgree(const ProseConfig &config, RunFn run,
                      FaultInjector *queue_injector = nullptr,
                      FaultInjector *ref_injector = nullptr)
{
    SimOptions queue_options;
    queue_options.recordSchedule = true;
    queue_options.injector = queue_injector;
    SimOptions ref_options = queue_options;
    ref_options.referenceScheduler = true;
    ref_options.injector = ref_injector;

    std::vector<SimReport> queue_tenants;
    std::vector<SimReport> ref_tenants;
    const SimReport queue_report =
        run(PerfSim(config, queue_options), queue_tenants);
    const SimReport ref_report =
        run(PerfSim(config, ref_options), ref_tenants);
    expectReportsIdentical(queue_report, ref_report);
    ASSERT_EQ(queue_tenants.size(), ref_tenants.size());
    for (std::size_t t = 0; t < queue_tenants.size(); ++t)
        expectReportsIdentical(queue_tenants[t], ref_tenants[t]);
}

/** Run one shape under both schedulers and demand identical reports. */
void
expectSchedulersAgree(const ProseConfig &config, const BertShape &shape,
                      FaultInjector *queue_injector = nullptr,
                      FaultInjector *ref_injector = nullptr)
{
    expectSchedulersAgree(
        config,
        [&](const PerfSim &sim, std::vector<SimReport> &) {
            return sim.run(shape);
        },
        queue_injector, ref_injector);
}

TEST(PerfSim, EventQueueMatchesReferenceScheduler)
{
    for (const BertShape &shape :
         { smallShape(4, 64), smallShape(32, 128), smallShape(7, 256) }) {
        expectSchedulersAgree(ProseConfig::bestPerf(), shape);
        expectSchedulersAgree(ProseConfig::mostEfficient(), shape);
    }
}

TEST(PerfSim, EventQueueMatchesReferenceUnderLinkFaults)
{
    // The injector draws once per dispatched accelerator task, so
    // identical dispatch order implies an identical fault sequence.
    CampaignSpec spec;
    spec.seed = 5;
    spec.linkErrorRate = 0.05;
    spec.linkTimeoutRate = 0.02;
    FaultInjector queue_injector(spec);
    FaultInjector ref_injector(spec);
    expectSchedulersAgree(ProseConfig::bestPerf(), smallShape(16, 128),
                          &queue_injector, &ref_injector);
    EXPECT_EQ(queue_injector.eventLogText(), ref_injector.eventLogText());
}

TEST(PerfSim, EventQueueMatchesReferenceOnUnevenSlices)
{
    // 130 sequences over 32 threads: two threads take five, thirty take
    // four, so the sliced batch carries two distinct chains.
    expectSchedulersAgree(ProseConfig::bestPerf(), smallShape(130, 64));
    expectSchedulersAgree(ProseConfig::mostEfficient(),
                          smallShape(130, 64));
}

TEST(PerfSim, EventQueueMatchesReferenceBelowTheThreadCount)
{
    // Five sequences on 32 threads: only five threads run.
    expectSchedulersAgree(ProseConfig::bestPerf(), smallShape(5, 128));
    const SimReport report =
        PerfSim(ProseConfig::bestPerf()).run(smallShape(5, 128));
    EXPECT_EQ(report.threadFinishSeconds.size(), 5u);
    EXPECT_EQ(report.inferenceEndSeconds.size(), 5u);
}

TEST(PerfSim, EventQueueMatchesReferenceOnSharedRunsUnderFaults)
{
    // Three tenants contend for the link while the campaign faults
    // transfers and kills arrays mid-run; the kills move every later
    // dispatch's duration, and the injector's draw order must match.
    ProseConfig config = ProseConfig::bestPerf();
    config.link = LinkSpec::nvlink2At80();
    const CampaignSpec spec = CampaignSpec::parse(
        "seed=11 link_error_rate=0.03 link_timeout_rate=0.01 "
        "kill_array=E:0@1e-3 kill_array=G:1@3e-3 kill_array=M:0@6e-3");
    const std::vector<BertShape> tenants{ smallShape(9, 128),
                                          smallShape(4, 256),
                                          smallShape(35, 64) };
    FaultInjector queue_injector(spec);
    FaultInjector ref_injector(spec);
    SimReport last;
    expectSchedulersAgree(
        config,
        [&](const PerfSim &sim, std::vector<SimReport> &per_tenant) {
            last = sim.runShared(tenants, &per_tenant);
            return last;
        },
        &queue_injector, &ref_injector);
    EXPECT_EQ(queue_injector.eventLogText(), ref_injector.eventLogText());
    // Every kill lands mid-run and transfers were retried.
    EXPECT_EQ(last.deadArrays, (std::array<std::uint32_t, 3>{ { 1, 1, 1 } }));
    EXPECT_GT(last.taskRetries, 0u);
}

TEST(PerfSim, EventQueueMatchesReferenceAcrossBitsetWords)
{
    // 100 threads: a resource's ready set spans two 64-bit words, and
    // the second tenant's threads start at global index 100.
    ProseConfig config = ProseConfig::bestPerf();
    config.threads = 100;
    expectSchedulersAgree(config, smallShape(130, 64));
    expectSchedulersAgree(
        config, [&](const PerfSim &sim, std::vector<SimReport> &per_tenant) {
            return sim.runShared({ smallShape(130, 64), smallShape(100, 64) },
                                 &per_tenant);
        });
}

TEST(PerfSim, KillAtTimeZeroMatchesSmallerPool)
{
    // An E array dead from t=0 leaves the pool one array short for the
    // whole run: every dispatch recosts its durations for the live
    // count, which must reproduce the smaller pool's schedule exactly.
    const BertShape shape{ 12, 768, 12, 3072, 16, 128 };
    const ProseConfig full = ProseConfig::bestPerf();
    ProseConfig smaller = full;
    --smaller.groups[typeIndex(ArrayType::E)].count;

    FaultInjector injector(CampaignSpec::parse("kill_array=E:0@0"));
    SimOptions options;
    options.injector = &injector;
    const SimReport killed = PerfSim(full, options).run(shape);
    const SimReport reference = PerfSim(smaller).run(shape);
    EXPECT_EQ(killed.deadArrays[typeIndex(ArrayType::E)], 1u);
    EXPECT_EQ(killed.makespan, reference.makespan);
    EXPECT_EQ(killed.threadFinishSeconds, reference.threadFinishSeconds);
}

TEST(PerfSim, HostSlotsAreWorkConserving)
{
    // Per tenant, host tasks never overlap more than the host has
    // slots, and a host task waits past its thread's previous task only
    // while every slot is busy.
    std::size_t delayed = 0;
    for (const std::uint32_t slots : { 16u, 4u }) {
        HostSpec spec;
        spec.slots = slots;
        SimOptions options;
        options.recordSchedule = true;
        options.host = HostModel(spec);
        const PerfSim sim(ProseConfig::bestPerf(), options);
        const SimReport report =
            sim.runShared({ smallShape(32, 128), smallShape(12, 256) });

        for (std::uint32_t tenant = 0; tenant < 2; ++tenant) {
            std::vector<ScheduledItem> host_items;
            for (const ScheduledItem &item : report.schedule)
                if (item.tenant == tenant && item.arrayIndex < 0)
                    host_items.push_back(item);
            ASSERT_FALSE(host_items.empty());
            auto busyAt = [&](double t) {
                std::uint32_t busy = 0;
                for (const ScheduledItem &item : host_items)
                    busy += item.start <= t && t < item.end;
                return busy;
            };
            for (const ScheduledItem &item : host_items)
                EXPECT_LE(busyAt(item.start), slots);

            // The schedule is in dispatch order, so each thread's items
            // appear in chain order.
            std::map<std::uint32_t, double> previous_end;
            for (const ScheduledItem &item : report.schedule) {
                if (item.tenant != tenant)
                    continue;
                const double ready = previous_end[item.thread];
                previous_end[item.thread] = item.end;
                if (item.arrayIndex >= 0 || item.start <= ready)
                    continue;
                ++delayed;
                // Busy slots only drop where a host task ends, so every
                // slot is busy over [ready, start) iff it is at `ready`
                // and at each host end inside the interval.
                EXPECT_EQ(busyAt(ready), slots);
                for (const ScheduledItem &other : host_items) {
                    if (other.end > ready && other.end < item.start) {
                        EXPECT_EQ(busyAt(other.end), slots);
                    }
                }
            }
        }
    }
    EXPECT_GT(delayed, 0u);
}

TEST(PerfSim, RunMatchesExplicitPerThreadChains)
{
    // run() shares one chain between threads with identical slices;
    // scheduling a chain built separately for every thread must give
    // the same bits, inference completion times included.
    const BertShape shape = smallShape(70, 64);
    SimOptions options;
    options.recordSchedule = true;
    const PerfSim sim(ProseConfig::bestPerf(), options);
    const SimReport sliced = sim.run(shape);

    const std::uint64_t threads = ProseConfig::bestPerf().threads;
    std::vector<std::vector<DataflowTask>> chains;
    std::vector<std::uint64_t> shares;
    for (std::uint64_t t = 0; t < threads; ++t) {
        BertShape slice = shape;
        slice.batch = shape.batch / threads +
                      (t < shape.batch % threads ? 1 : 0);
        shares.push_back(slice.batch);
        chains.push_back(
            DataflowBuilder{}.build(synthesizeBertTrace(slice)));
    }
    SimReport explicit_chains = sim.runTasks(chains);
    explicit_chains.inferences = shape.batch;
    for (std::uint64_t t = 0; t < threads; ++t)
        explicit_chains.inferenceEndSeconds.insert(
            explicit_chains.inferenceEndSeconds.end(), shares[t],
            explicit_chains.threadFinishSeconds[t]);
    expectReportsIdentical(explicit_chains, sliced);
}

TEST(PerfSim, HeterogeneousBeatsHomogeneousAtLongLengths)
{
    // Figure 4's core claim at a batch the tests can afford. Past the
    // crossover (well beyond 300 tokens) the homogeneous design's lack
    // of SIMD lanes on the attention path dominates.
    const BertShape shape{ 12, 768, 12, 3072, 8, 1024 };
    const double hetero =
        PerfSim(ProseConfig::bestPerf()).run(shape).makespan;
    const double homo =
        PerfSim(ProseConfig::fourBy64Homogeneous()).run(shape).makespan;
    EXPECT_LT(hetero, homo);
}

} // namespace
} // namespace prose
