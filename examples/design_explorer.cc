/**
 * @file
 * Design-space explorer: size your own ProSE. Sweeps heterogeneous
 * array mixes under a PE budget for a chosen protein length, prints
 * the Pareto frontier, and recommends a configuration — the Section 4.2
 * methodology exposed as a tool.
 *
 * Build & run:  ./build/examples/design_explorer [pe-budget] [seq-len]
 *   e.g.        ./build/examples/design_explorer 16384 1024
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "dse/dse_engine.hh"

using namespace prose;

int
main(int argc, char **argv)
{
    std::uint64_t budget = 16384;
    std::uint64_t seq_len = 512;
    if (argc > 3)
        fatal("unexpected argument \"", argv[3],
              "\"; usage: design_explorer [pe-budget] [seq-len]");
    if (argc > 1 && (!parseU64(argv[1], budget) || budget == 0))
        fatal("PE budget must be a positive integer, got '", argv[1],
              "'");
    if (argc > 2 && (!parseU64(argv[2], seq_len) || seq_len == 0))
        fatal("sequence length must be a positive integer, got '",
              argv[2], "'");

    std::cout << "ProSE design explorer\n=====================\n\n"
              << "PE budget: " << budget << ", target length: " << seq_len
              << " tokens, link: NVLink 2.0 @ 90%\n\n";

    ConfigSpaceSpec spec;
    spec.peBudget = budget;
    spec.maxCount32 = 31;
    spec.maxCount16 = 63;

    DseWorkload workload;
    workload.shape = BertShape{ 12, 768, 12, 3072, 128, seq_len };
    const DseEngine engine(workload);
    const DseSelection selection = engine.explore(spec);

    // Print the power-Pareto frontier sorted by runtime.
    std::vector<std::size_t> front = selection.powerPareto;
    std::sort(front.begin(), front.end(), [&](std::size_t a, std::size_t b) {
        return selection.points[a].runtimeSeconds <
               selection.points[b].runtimeSeconds;
    });
    Table table({ "config", "lanes", "runtime-vs-A100", "inf/s",
                  "power(W)", "area(mm2)" });
    for (std::size_t idx : front) {
        const DsePoint &point = selection.points[idx];
        table.addRow({ point.config.name, point.config.lanes.describe(),
                       Table::fmt(point.runtimeVsA100, 3),
                       Table::fmt(point.inferencesPerSecond, 0),
                       Table::fmt(point.powerWatts, 2),
                       Table::fmt(point.areaMm2, 2) });
    }
    std::cout << "runtime-vs-power Pareto frontier (" << front.size()
              << " of " << selection.points.size() << " mixes):\n\n";
    table.print(std::cout);

    const DsePoint &best = selection.points[selection.bestPerf];
    const DsePoint &efficient =
        selection.points[selection.mostPowerEfficient];
    std::cout << "\nBestPerf:           " << best.config.describe()
              << "\nMostPowerEfficient: " << efficient.config.describe()
              << "\n\nRecommendation: " << efficient.config.name
              << " gives "
              << Table::fmt(best.runtimeSeconds /
                                efficient.runtimeSeconds * 100.0,
                            0)
              << "% of BestPerf's speed at "
              << Table::fmt(efficient.powerWatts / best.powerWatts * 100.0,
                            0)
              << "% of its power.\n";
    return 0;
}
