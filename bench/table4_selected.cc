/**
 * @file
 * Table 4: the six select ProSE instance configurations (BestPerf,
 * MostEfficient, Homogeneous at 16K PEs; their "+" variants at 20K PEs)
 * with power and area from the component library, plus their simulated
 * performance at the paper's operating point.
 */

#include "bench_util.hh"

using namespace prose;
using namespace prose::bench;

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Table 4: select ProSE instance configurations");

    const PowerModel power;
    Table table({ "Config", "mix", "PEs", "Power(mW)", "Area(mm2)",
                  "runtime(ms)", "inf/s" });
    for (const ProseConfig &config :
         { ProseConfig::bestPerf(), ProseConfig::mostEfficient(),
           ProseConfig::homogeneous(), ProseConfig::bestPerfPlus(),
           ProseConfig::mostEfficientPlus(),
           ProseConfig::homogeneousPlus() }) {
        std::string mix;
        for (const auto &group : config.groups) {
            if (!mix.empty())
                mix += " + ";
            mix += std::to_string(group.count) + "x" +
                   toString(group.geometry.type) +
                   std::to_string(group.geometry.dim);
        }
        const SimReport report = simulate(config, operatingPoint());
        table.addRow({
            config.name, mix, Table::fmtInt(config.totalPes()),
            Table::fmt(1000.0 * power.arrayPowerWatts(config.groups,
                                                      false),
                       0),
            Table::fmt(power.arrayAreaMm2(config.groups, true), 2),
            Table::fmt(report.makespan * 1e3, 1),
            Table::fmt(report.inferencesPerSecond(), 0),
        });
    }
    table.print(std::cout);

    std::cout << "\nPaper reference (Table 4): BestPerf 12994 mW / "
                 "12.75 mm2; MostEfficient 12306 mW\n/ 12.49 mm2; "
                 "Homogeneous 10652 mW / 11.93 mm2; + variants 16918 mW "
                 "/ 48.50 mm2\nand 13315 mW / 14.92 mm2. Our sums come "
                 "directly from Table 2 components.\n";
    return 0;
}
