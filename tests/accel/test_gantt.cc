/** @file Tests for the ASCII Gantt renderer. */

#include <gtest/gtest.h>

#include <sstream>

#include "accel/gantt.hh"

namespace prose {
namespace {

SimReport
recordedRun(std::uint32_t threads = 2)
{
    SimOptions options;
    options.recordSchedule = true;
    ProseConfig config = ProseConfig::bestPerf();
    config.threads = threads;
    PerfSim sim(config, options);
    return sim.run(BertShape{ 2, 768, 12, 3072, threads, 64 });
}

std::string
ganttText(const SimReport &report, const GanttOptions &options = {})
{
    std::ostringstream os;
    renderGantt(os, report, options);
    return os.str();
}

TEST(Gantt, RendersOneRowPerThread)
{
    const SimReport report = recordedRun(3);
    const std::string text = ganttText(report);
    EXPECT_NE(text.find("thread 0"), std::string::npos);
    EXPECT_NE(text.find("thread 1"), std::string::npos);
    EXPECT_NE(text.find("thread 2"), std::string::npos);
    EXPECT_NE(text.find("legend"), std::string::npos);
}

TEST(Gantt, ContainsAllActivitySymbols)
{
    const std::string text = ganttText(recordedRun(2));
    for (char symbol : { '1', '2', '3', 'h' })
        EXPECT_NE(text.find(symbol), std::string::npos) << symbol;
}

TEST(Gantt, RowsHaveRequestedWidth)
{
    GanttOptions options;
    options.columns = 40;
    const std::string text = ganttText(recordedRun(1), options);
    // Each row is |<columns>|; check the bar width.
    const auto bar_start = text.find('|');
    ASSERT_NE(bar_start, std::string::npos);
    const auto bar_end = text.find('|', bar_start + 1);
    ASSERT_NE(bar_end, std::string::npos);
    EXPECT_EQ(bar_end - bar_start - 1, 40u);
}

TEST(Gantt, PerPoolRowsNamed)
{
    GanttOptions options;
    options.perPool = true;
    const std::string text = ganttText(recordedRun(2), options);
    EXPECT_NE(text.find("pool M"), std::string::npos);
    EXPECT_NE(text.find("pool G"), std::string::npos);
    EXPECT_NE(text.find("pool E"), std::string::npos);
    EXPECT_EQ(text.find("thread"), std::string::npos);
}

TEST(Gantt, MaxRowsClipsOutput)
{
    // 40 rows print; the other 8 of 48 threads collapse into one line.
    const std::string text = ganttText(recordedRun(48));
    EXPECT_NE(text.find("thread 39|"), std::string::npos);
    EXPECT_EQ(text.find("thread 40|"), std::string::npos);
    EXPECT_NE(text.find("  ... (8 more rows)"), std::string::npos);
    EXPECT_EQ(ganttText(recordedRun(40)).find("more rows"),
              std::string::npos);
}

TEST(GanttDeathTest, NeedsARecordedSchedule)
{
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport report =
        sim.run(BertShape{ 2, 768, 12, 3072, 2, 64 });
    EXPECT_DEATH(ganttText(report), "recorded schedule");
}

} // namespace
} // namespace prose
