/**
 * @file
 * Figure 17: DSE sweeps over processing-element budgets from 8K to 24K
 * at fixed NVLink 2.0 @ 90% (270 GB/s): performance and power
 * efficiency of the per-budget BestPerf and MostPowerEfficient picks,
 * normalized to one A100.
 *
 * Paper shape: 16K PEs (ProSE) and 20K PEs (ProSE+) are the balance
 * points where the designs are comparably performant and efficient.
 */

#include "bench_util.hh"
#include "dse/dse_engine.hh"

using namespace prose;
using namespace prose::bench;

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Figure 17: PE-budget sweep (8K-24K PEs, 270 GB/s)");

    const DseEngine engine{ DseWorkload{ operatingPoint() } };
    const double a100_seconds = engine.a100Seconds();
    const auto a100 = makeA100();
    const double a100_eff =
        (static_cast<double>(operatingPoint().batch) / a100_seconds) /
        a100->watts();

    Table table({ "PEs", "pick", "config", "perf-vs-A100",
                  "perf/W-vs-A100" });
    for (std::uint64_t budget :
         { 8192u, 12288u, 16384u, 20480u, 24576u }) {
        ConfigSpaceSpec spec;
        spec.peBudget = budget;
        // Larger budgets admit more arrays; widen the Table 3 G/E
        // bounds proportionally so the space stays populated.
        spec.maxCount32 = 23;
        spec.maxCount16 = 63;
        const DseSelection selection = engine.explore(spec);

        for (const bool best : { true, false }) {
            const DsePoint &point =
                selection.points[best ? selection.bestPerf
                                      : selection.mostPowerEfficient];
            const SimReport report =
                simulate(point.config, operatingPoint());
            const double eff =
                proseEfficiency(point.config, report);
            table.addRow({ Table::fmtInt(static_cast<long long>(budget)),
                           best ? "BestPerf" : "MostPowerEfficient",
                           point.config.name,
                           Table::fmt(a100_seconds / point.runtimeSeconds,
                                      2),
                           Table::fmt(eff / a100_eff, 1) });
        }
    }
    table.print(std::cout);

    std::cout << "\nPaper reference: perf rises with PE count while "
                 "perf/W flattens; 16K and 20K\nPEs are the balanced "
                 "designs the paper carries forward (ProSE / ProSE+).\n";
    return 0;
}
