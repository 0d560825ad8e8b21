/**
 * @file
 * Figure 16 + Table 3: the design space exploration over heterogeneous
 * array mixes at a 16K-PE budget (one TPU systolic array worth), each
 * mix swept over static NVLink lane partitions. Prints the runtime vs
 * power and runtime vs area scatters with Pareto membership and the
 * BestPerf / MostEfficient selections.
 */

#include <algorithm>

#include "bench_util.hh"
#include "dse/dse_engine.hh"

using namespace prose;
using namespace prose::bench;

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Figure 16: design space exploration (16K PEs, NVLink2 @90%)");

    ConfigSpaceSpec spec;
    const DseEngine engine{ DseWorkload{ operatingPoint(), 0.0 } };
    const DseSelection selection = engine.explore(spec);

    const std::size_t lane_options =
        LanePartition::enumerate(spec.link.lanes).size();
    std::cout << "array mixes: " << selection.points.size()
              << ", lane partitions per mix: " << lane_options
              << ", configurations evaluated: "
              << selection.points.size() * lane_options
              << " (paper: 238 after pruning)\n\n";

    auto on = [](const std::vector<std::size_t> &front, std::size_t i) {
        return std::find(front.begin(), front.end(), i) != front.end();
    };

    Table table({ "config", "lanes", "runtime/A100", "power(W)",
                  "area(mm2)", "powerPareto", "areaPareto", "pick" });
    // Sort rows by normalized runtime for readability.
    std::vector<std::size_t> order(selection.points.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return selection.points[a].runtimeSeconds <
               selection.points[b].runtimeSeconds;
    });
    for (std::size_t i : order) {
        const DsePoint &point = selection.points[i];
        std::string pick;
        if (i == selection.bestPerf)
            pick += "BestPerf ";
        if (i == selection.mostPowerEfficient)
            pick += "MostPowerEff ";
        if (i == selection.mostAreaEfficient)
            pick += "MostAreaEff";
        table.addRow({ point.config.name, point.config.lanes.describe(),
                       Table::fmt(point.runtimeVsA100, 3),
                       Table::fmt(point.powerWatts, 2),
                       Table::fmt(point.areaMm2, 2),
                       on(selection.powerPareto, i) ? "*" : "",
                       on(selection.areaPareto, i) ? "*" : "", pick });
    }
    table.print(std::cout);

    // The Table 4-bottom "+" exploration: 20K PEs on a 540 GB/s link.
    banner("Table 4 bottom: 20K-PE DSE at NVLink 3.0 @90% (540 GB/s)");
    ConfigSpaceSpec plus_spec;
    plus_spec.peBudget = 20480;
    plus_spec.link = LinkSpec::nvlink3At90();
    plus_spec.maxCount32 = 23;
    plus_spec.maxCount16 = 47;
    const DseSelection plus = engine.explore(plus_spec);
    const DsePoint &plus_best = plus.points[plus.bestPerf];
    const DsePoint &plus_eff = plus.points[plus.mostPowerEfficient];
    std::cout << "BestPerf+:       " << plus_best.config.name
              << "  runtime/A100 "
              << Table::fmt(plus_best.runtimeVsA100, 3) << ", "
              << Table::fmt(plus_best.powerWatts, 2) << " W\n";
    std::cout << "MostEfficient+:  " << plus_eff.config.name
              << "  runtime/A100 "
              << Table::fmt(plus_eff.runtimeVsA100, 3) << ", "
              << Table::fmt(plus_eff.powerWatts, 2) << " W\n";
    std::cout << "(paper: BestPerf+ and MostEfficient+ coincide at "
                 "2xM64 + 5xG32 + 7xE32)\n";

    std::cout << "\nPaper reference: BestPerf and the Pareto "
                 "MostPowerEfficient/MostAreaEfficient\npoints are "
                 "selected; the paper's MostPowerEfficient and "
                 "MostAreaEfficient\ncoincide (called MostEfficient).\n";
    return 0;
}
