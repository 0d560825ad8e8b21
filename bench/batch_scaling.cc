/**
 * @file
 * Batch-scaling study: throughput and efficiency versus batch size at
 * the paper's 512-token length. The paper fixes batch 128 for the ProSE
 * evaluation and uses memory-capped giant batches on the A100
 * (Section 2.3); this exhibit shows where ProSE's throughput saturates
 * and what latency each batch size costs — the knob a serving system
 * actually tunes.
 */

#include "bench_util.hh"

using namespace prose;
using namespace prose::bench;

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Batch scaling at 512 tokens (BestPerf, NVLink 2.0 @90%)");

    const ProseConfig config = ProseConfig::bestPerf();
    Table table({ "batch", "makespan(ms)", "inf/s", "latency/inf(ms)",
                  "inf/s/W", "utilM/G/E" });
    for (std::uint64_t batch :
         { 1u, 4u, 16u, 32u, 64u, 128u, 256u, 512u }) {
        const BertShape shape{ 12, 768, 12, 3072, batch, 512 };
        const SimReport report = simulate(config, shape);
        const double eff = proseEfficiency(config, report);
        table.addRow(
            { std::to_string(batch),
              Table::fmt(report.makespan * 1e3, 1),
              Table::fmt(report.inferencesPerSecond(), 1),
              Table::fmt(report.makespan * 1e3 /
                             static_cast<double>(batch),
                         2),
              Table::fmt(eff, 2),
              Table::fmt(report.utilization(ArrayType::M), 2) + "/" +
                  Table::fmt(report.utilization(ArrayType::G), 2) +
                  "/" +
                  Table::fmt(report.utilization(ArrayType::E), 2) });
    }
    table.print(std::cout);

    std::cout << "\nSmall batches underfill the 32-thread orchestration "
                 "(idle pools); throughput\nsaturates once every thread "
                 "carries work — why the paper evaluates at batch "
                 "128.\n";
    return 0;
}
