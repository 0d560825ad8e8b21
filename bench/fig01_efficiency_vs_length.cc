/**
 * @file
 * Figure 1: BERT-style model inference power efficiency (inferences per
 * second per watt) as a function of input sequence length, for the A100,
 * TPUv2, TPUv3, and ProSE (BestPerf, NVLink 2.0 @ 90%).
 *
 * Paper shape: all commodity platforms decay steeply with length; past
 * ~300 tokens (protein-scale inputs) they drop below 1 inference/s/W
 * while ProSE stays roughly an order of magnitude above them.
 */

#include "bench_util.hh"

using namespace prose;
using namespace prose::bench;

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Figure 1: inference efficiency (inf/s/W) vs input length");

    const auto a100 = makeA100();
    const auto tpu2 = makeTpuV2();
    const auto tpu3 = makeTpuV3();
    const ProseConfig prose_config = ProseConfig::bestPerf();

    Table table({ "len", "batch", "A100", "TPUv2", "TPUv3", "ProSE",
                  "ProSE/A100", "ProSE/TPUv3" });
    for (const LengthPoint &point : paperLengthSweep()) {
        const BertShape shape = shapeFor(point);
        const double eff_a100 = platformEfficiency(*a100, shape);
        const double eff_tpu2 = platformEfficiency(*tpu2, shape);
        const double eff_tpu3 = platformEfficiency(*tpu3, shape);
        const SimReport report = simulate(prose_config, shape);
        const double eff_prose = proseEfficiency(prose_config, report);
        table.addRow({ std::to_string(point.seqLen),
                       std::to_string(point.batch),
                       Table::fmt(eff_a100, 3), Table::fmt(eff_tpu2, 3),
                       Table::fmt(eff_tpu3, 3), Table::fmt(eff_prose, 2),
                       Table::fmt(eff_prose / eff_a100, 1),
                       Table::fmt(eff_prose / eff_tpu3, 1) });
    }
    table.print(std::cout);

    std::cout << "\nPaper reference: commodity platforms fall below 1 "
                 "inf/s/W past ~512 tokens;\nProSE holds one to two "
                 "orders of magnitude advantage at protein lengths.\n";
    return 0;
}
