/**
 * @file
 * Bit-exact SimReport comparison shared by the PerfSim tests.
 */

#ifndef PROSE_TESTS_ACCEL_REPORT_MATCH_HH
#define PROSE_TESTS_ACCEL_REPORT_MATCH_HH

#include <gtest/gtest.h>

#include "accel/perf_sim.hh"

namespace prose {

/**
 * Exact equality of everything a SimReport records: doubles compared
 * bit-for-bit via ==, recorded schedules item by item. The scheduler,
 * streaming and tenancy changes promise bit-exact reproduction in
 * several directions, so approximate comparison would hide real drift.
 */
inline void
expectReportsIdentical(const SimReport &a, const SimReport &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.taskCount, b.taskCount);
    EXPECT_EQ(a.inferences, b.inferences);
    EXPECT_EQ(a.bytesIn, b.bytesIn);
    EXPECT_EQ(a.bytesOut, b.bytesOut);
    EXPECT_EQ(a.wireBytesIn, b.wireBytesIn);
    EXPECT_EQ(a.wireBytesOut, b.wireBytesOut);
    EXPECT_EQ(a.hostBusySeconds, b.hostBusySeconds);
    EXPECT_EQ(a.cpuDuty, b.cpuDuty);
    EXPECT_EQ(a.totalFlops, b.totalFlops);
    EXPECT_EQ(a.typeBusySeconds, b.typeBusySeconds);
    EXPECT_EQ(a.typeCounts, b.typeCounts);
    EXPECT_EQ(a.fillSeconds, b.fillSeconds);
    EXPECT_EQ(a.drainSeconds, b.drainSeconds);
    EXPECT_EQ(a.linkWaitSeconds, b.linkWaitSeconds);
    EXPECT_EQ(a.prefetchStallSeconds, b.prefetchStallSeconds);
    EXPECT_EQ(a.tenantCount, b.tenantCount);
    EXPECT_EQ(a.threadFinishSeconds, b.threadFinishSeconds);
    EXPECT_EQ(a.inferenceEndSeconds, b.inferenceEndSeconds);
    EXPECT_EQ(a.linkTransferErrors, b.linkTransferErrors);
    EXPECT_EQ(a.linkTimeouts, b.linkTimeouts);
    EXPECT_EQ(a.taskRetries, b.taskRetries);
    EXPECT_EQ(a.abandonedTransfers, b.abandonedTransfers);
    EXPECT_EQ(a.retrySeconds, b.retrySeconds);
    EXPECT_EQ(a.deadArrays, b.deadArrays);

    // Identical dispatch order, not just identical totals.
    ASSERT_EQ(a.schedule.size(), b.schedule.size());
    for (std::size_t i = 0; i < a.schedule.size(); ++i) {
        const ScheduledItem &x = a.schedule[i];
        const ScheduledItem &y = b.schedule[i];
        EXPECT_EQ(x.tenant, y.tenant) << "item " << i;
        EXPECT_EQ(x.thread, y.thread) << "item " << i;
        EXPECT_EQ(x.kind, y.kind) << "item " << i;
        EXPECT_EQ(x.sublayer, y.sublayer) << "item " << i;
        EXPECT_EQ(x.layer, y.layer) << "item " << i;
        EXPECT_EQ(x.arrayIndex, y.arrayIndex) << "item " << i;
        EXPECT_EQ(x.start, y.start) << "item " << i;
        EXPECT_EQ(x.end, y.end) << "item " << i;
        EXPECT_EQ(x.poolEnd, y.poolEnd) << "item " << i;
    }
}

} // namespace prose

#endif // PROSE_TESTS_ACCEL_REPORT_MATCH_HH
