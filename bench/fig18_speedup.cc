/**
 * @file
 * Figure 18: speedup of the six ProSE/ProSE+ configurations over one
 * NVIDIA A100 and one TPUv3, across host-accelerator link bandwidths
 * (NVLink 2.0 @ 80/90%, NVLink 3.0 @ 80/90%, infinite).
 *
 * Paper shape: BestPerf/MostEfficient reach ~3.9-4.7x over the A100 and
 * ~3.1-3.8x over TPUv3 at NVLink 2.0; the + designs need faster links
 * before they plateau; homogeneous designs trail at every bandwidth.
 */

#include "bench_util.hh"

using namespace prose;
using namespace prose::bench;

namespace {

/** Scale a 16K-PE lane partition onto a link's lane count. */
LanePartition
partitionFor(const LinkSpec &link)
{
    if (link.lanes == 12)
        return LanePartition{ 6, 2, 4 };
    return LanePartition{ 3, 1, 2 };
}

} // namespace

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Figure 18: ProSE speedup vs A100 and TPUv3 across link "
           "bandwidths");

    const BertShape shape = operatingPoint();
    const OpTrace trace = synthesizeBertTrace(shape);
    const double a100_s = makeA100()->costTrace(trace).acceleratedSeconds;
    const double tpu3_s = makeTpuV3()->costTrace(trace).acceleratedSeconds;

    Table table({ "config", "link", "runtime(ms)", "vs-A100",
                  "vs-TPUv3" });
    for (const ProseConfig &base :
         { ProseConfig::bestPerf(), ProseConfig::bestPerfPlus(),
           ProseConfig::mostEfficient(), ProseConfig::mostEfficientPlus(),
           ProseConfig::homogeneous(), ProseConfig::homogeneousPlus() }) {
        for (const LinkSpec &link : LinkSpec::paperSweep()) {
            ProseConfig config = base;
            config.link = link;
            config.lanes = partitionFor(link);
            const SimReport report = simulate(config, shape);
            table.addRow({ config.name, link.name,
                           Table::fmt(report.makespan * 1e3, 1),
                           Table::fmt(a100_s / report.makespan, 2),
                           Table::fmt(tpu3_s / report.makespan, 2) });
        }
    }
    table.print(std::cout);

    std::cout << "\nPaper reference: BestPerf/MostEfficient 3.9-4.7x over "
                 "A100 and 3.1-3.8x over TPUv3\nat NVLink 2.0, up to "
                 "6.9x / 5.5x as bandwidth grows; homogeneous designs "
                 "cannot\nreach the heterogeneous designs even at "
                 "infinite bandwidth.\n";
    return 0;
}
