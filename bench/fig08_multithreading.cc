/**
 * @file
 * Figure 8: orchestration and scheduling of dataflows for 1-, 2-, 4-,
 * and 32-thread ProSE, plus a Gantt-style excerpt of the schedule.
 *
 * Paper shape: more threads remove data-dependency bubbles and raise
 * throughput, at the cost of growing I/O-buffer mutex contention; the
 * paper settles on 32 threads.
 */

#include <iomanip>

#include "accel/gantt.hh"
#include "accel/schedule_analysis.hh"
#include "bench_util.hh"

using namespace prose;
using namespace prose::bench;

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Figure 8: multithreaded orchestration and scheduling");

    const BertShape shape{ 12, 768, 12, 3072, 32, 512 };
    Table table({ "threads", "makespan(ms)", "inf/s", "utilM", "utilG",
                  "utilE", "speedup-vs-1T" });
    double single = 0.0;
    for (std::uint32_t threads : { 1u, 2u, 4u, 8u, 16u, 32u }) {
        ProseConfig config = ProseConfig::bestPerf();
        config.threads = threads;
        const SimReport report = simulate(config, shape);
        if (threads == 1)
            single = report.makespan;
        table.addRow({ std::to_string(threads),
                       Table::fmt(report.makespan * 1e3, 2),
                       Table::fmt(report.inferencesPerSecond(), 1),
                       Table::fmt(report.utilization(ArrayType::M), 2),
                       Table::fmt(report.utilization(ArrayType::G), 2),
                       Table::fmt(report.utilization(ArrayType::E), 2),
                       Table::fmt(single / report.makespan, 2) });
    }
    table.print(std::cout);

    // Bubble analysis: why single-thread runs waste the pools.
    banner("Dependency bubbles and pool idleness vs thread count");
    Table bubbles({ "threads", "mean-bubble-frac", "M-idle", "G-idle",
                    "E-idle" });
    for (std::uint32_t threads : { 1u, 4u, 32u }) {
        SimOptions rec;
        rec.recordSchedule = true;
        ProseConfig cfg = ProseConfig::bestPerf();
        cfg.threads = threads;
        const SimReport run =
            PerfSim(cfg, rec).run(BertShape{ 12, 768, 12, 3072, 32, 256 });
        const ScheduleAnalysis analysis = analyzeSchedule(run);
        bubbles.addRow(
            { std::to_string(threads),
              Table::fmt(analysis.meanBubbleFraction(), 2),
              Table::fmt(analysis.poolIdleFraction(ArrayType::M), 2),
              Table::fmt(analysis.poolIdleFraction(ArrayType::G), 2),
              Table::fmt(analysis.poolIdleFraction(ArrayType::E), 2) });
    }
    bubbles.print(std::cout);

    // Gantt excerpt: the first few tasks of a 4-thread schedule showing
    // the Dataflow 1 -> 3 -> 1 -> 2 -> 1 chain interleaving.
    banner("Schedule excerpt (4 threads, first 16 scheduled tasks)");
    SimOptions options;
    options.recordSchedule = true;
    ProseConfig config = ProseConfig::bestPerf();
    config.threads = 4;
    const SimReport report =
        PerfSim(config, options).run(BertShape{ 2, 768, 12, 3072, 4, 256 });
    Table gantt({ "t(us)", "thread", "task", "pool", "dur(us)" });
    std::size_t shown = 0;
    for (const auto &item : report.schedule) {
        if (shown++ >= 16)
            break;
        const char *pool = item.arrayIndex == 0   ? "M"
                           : item.arrayIndex == 1 ? "G"
                           : item.arrayIndex == 2 ? "E"
                                                  : "host";
        gantt.addRow({ Table::fmt(item.start * 1e6, 1),
                       std::to_string(item.thread),
                       toString(item.kind), pool,
                       Table::fmt((item.end - item.start) * 1e6, 1) });
    }
    gantt.print(std::cout);

    // The Figure 8 picture itself, for 1 vs 4 threads.
    for (std::uint32_t threads : { 1u, 4u }) {
        banner("Gantt, " + std::to_string(threads) + " thread(s), one "
               "2-layer inference slice");
        SimOptions rec;
        rec.recordSchedule = true;
        ProseConfig cfg = ProseConfig::bestPerf();
        cfg.threads = threads;
        const SimReport run =
            PerfSim(cfg, rec).run(BertShape{ 2, 768, 12, 3072, threads, 256 });
        GanttOptions opt;
        opt.columns = 68;
        renderGantt(std::cout, run, opt);
        opt.perPool = true;
        renderGantt(std::cout, run, opt);
    }

    std::cout << "\nPaper reference: throughput improves 1 -> 32 threads "
                 "with diminishing returns\nfrom thread contention; 32 "
                 "threads chosen for ProSE.\n";
    return 0;
}
