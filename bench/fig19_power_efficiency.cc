/**
 * @file
 * Figure 19: power efficiency (inferences/s/W) of the ProSE and ProSE+
 * configurations normalized to one A100 and one TPUv3, across link
 * bandwidths. Also reports the TPUv2 ratio for the paper's headline
 * "up to 249x".
 */

#include "bench_util.hh"

using namespace prose;
using namespace prose::bench;

namespace {

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
    banner("Figure 19: normalized power efficiency across link "
           "bandwidths");

    const BertShape shape = operatingPoint();
    const double eff_a100 = platformEfficiency(*makeA100(), shape);
    const double eff_tpu3 = platformEfficiency(*makeTpuV3(), shape);
    const double eff_tpu2 = platformEfficiency(*makeTpuV2(), shape);

    Table table({ "config", "link", "inf/s/W", "vs-A100", "vs-TPUv3",
                  "vs-TPUv2" });
    for (const ProseConfig &base :
         { ProseConfig::bestPerf(), ProseConfig::bestPerfPlus(),
           ProseConfig::mostEfficient(), ProseConfig::mostEfficientPlus(),
           ProseConfig::homogeneous(), ProseConfig::homogeneousPlus() }) {
        for (const LinkSpec &link : LinkSpec::paperSweep()) {
            ProseConfig config = base;
            config.link = link;
            config.lanes = partitionFor(link);
            const SimReport report = simulate(config, shape);
            const double eff = proseEfficiency(config, report);
            table.addRow({ config.name, link.name, Table::fmt(eff, 2),
                           Table::fmt(eff / eff_a100, 1),
                           Table::fmt(eff / eff_tpu3, 1),
                           Table::fmt(eff / eff_tpu2, 1) });
        }
    }
    table.print(std::cout);

    std::cout << "\nPaper reference: up to 48x the A100, 173x TPUv3, "
                 "249x TPUv2 — one to two\norders of magnitude, driven "
                 "by eliminating the TPU's power-hungry Unified\nBuffer "
                 "and the GPU's full-chip activation.\n";
    return 0;
}
