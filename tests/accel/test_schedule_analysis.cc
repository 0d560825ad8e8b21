/** @file Tests for the schedule post-mortem analysis. */

#include <gtest/gtest.h>

#include "accel/schedule_analysis.hh"

namespace prose {
namespace {

SimReport
recordedRun(std::uint32_t threads, std::uint64_t batch = 8)
{
    SimOptions options;
    options.recordSchedule = true;
    ProseConfig config = ProseConfig::bestPerf();
    config.threads = threads;
    PerfSim sim(config, options);
    return sim.run(BertShape{ 2, 768, 12, 3072, batch, 128 });
}

TEST(ScheduleAnalysis, BusyMatchesReportTallies)
{
    const SimReport report = recordedRun(4);
    const ScheduleAnalysis analysis = analyzeSchedule(report);
    // Pool busy seconds from the Gantt equal the simulator's per-type
    // tallies divided by the instance counts (the report multiplies by
    // pool size).
    for (std::size_t idx = 0; idx < 3; ++idx) {
        const double expected =
            report.typeBusySeconds[idx] / report.typeCounts[idx];
        EXPECT_NEAR(analysis.poolBusySeconds[idx], expected,
                    1e-12 + expected * 1e-9);
    }
}

TEST(ScheduleAnalysis, BusyPlusIdleSpansMakespan)
{
    const SimReport report = recordedRun(4);
    const ScheduleAnalysis analysis = analyzeSchedule(report);
    for (std::size_t idx = 0; idx < 3; ++idx) {
        EXPECT_NEAR(analysis.poolBusySeconds[idx] +
                        analysis.poolIdleSeconds[idx],
                    analysis.makespan, analysis.makespan * 1e-6);
    }
}

TEST(ScheduleAnalysis, SingleThreadHasLargeBubbles)
{
    // One thread leaves every pool idle while the others work — the
    // Figure 8 single-thread picture.
    const ScheduleAnalysis one = analyzeSchedule(recordedRun(1));
    const ScheduleAnalysis many = analyzeSchedule(recordedRun(8));
    EXPECT_GT(one.poolIdleFraction(ArrayType::E), 0.5);
    EXPECT_GT(one.poolIdleFraction(ArrayType::E),
              many.poolIdleFraction(ArrayType::E));
}

TEST(ScheduleAnalysis, KindBreakdownCoversAllKinds)
{
    const ScheduleAnalysis analysis = analyzeSchedule(recordedRun(2));
    EXPECT_GT(analysis.kindCounts.at(DataflowKind::Dataflow1), 0u);
    EXPECT_GT(analysis.kindCounts.at(DataflowKind::Dataflow2), 0u);
    EXPECT_GT(analysis.kindCounts.at(DataflowKind::Dataflow3), 0u);
    EXPECT_GT(analysis.kindCounts.at(DataflowKind::Host), 0u);
    for (const auto &[kind, seconds] : analysis.kindSeconds)
        EXPECT_GT(seconds, 0.0) << toString(kind);
}

TEST(ScheduleAnalysis, CriticalPathWithinMakespan)
{
    const ScheduleAnalysis analysis = analyzeSchedule(recordedRun(4));
    EXPECT_GT(analysis.criticalPathSeconds, 0.0);
    EXPECT_LE(analysis.criticalPathSeconds,
              analysis.makespan * (1.0 + 1e-9));
}

TEST(ScheduleAnalysis, BubbleFractionBounded)
{
    const ScheduleAnalysis analysis = analyzeSchedule(recordedRun(4));
    EXPECT_GE(analysis.meanBubbleFraction(), 0.0);
    EXPECT_LE(analysis.meanBubbleFraction(), 1.0);
}

TEST(ScheduleAnalysisDeathTest, NeedsARecordedSchedule)
{
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport report =
        sim.run(BertShape{ 2, 768, 12, 3072, 2, 64 });
    EXPECT_DEATH(analyzeSchedule(report), "recorded schedule");
}

} // namespace
} // namespace prose
