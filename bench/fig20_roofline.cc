/**
 * @file
 * Figure 20: empirical roofline for the BestPerf and BestPerf+ designs —
 * performance as a function of host-accelerator bandwidth from 45 to
 * 630 GB/s. The heterogeneous components saturate one by one until the
 * whole design is compute-bound.
 */

#include "accel/roofline.hh"
#include "bench_util.hh"

using namespace prose;
using namespace prose::bench;

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Figure 20: empirical roofline, BestPerf and BestPerf+");

    const BertShape shape = operatingPoint();
    // "stream gain" is double-buffered DMA (the instance default) over
    // serialized transfers on BestPerf: large while the design rides
    // the link roofline, converging toward 1x once compute dominates.
    // bench/link_wall.cc sweeps the streaming axes in full.
    Table table({ "BW(GB/s)", "BestPerf inf/s", "BestPerf+ inf/s",
                  "stream gain", "BestPerf util(M/G/E)" });
    for (double gbps = 45.0; gbps <= 630.0 + 1e-9; gbps += 45.0) {
        ProseConfig best = ProseConfig::bestPerf();
        best.link = LinkSpec::custom(gbps);
        ProseConfig plus = ProseConfig::bestPerfPlus();
        plus.link = LinkSpec::custom(gbps);
        ProseConfig serial = best;
        serial.streaming.mode = StreamMode::Serialized;

        const SimReport rb = simulate(best, shape);
        const SimReport rp = simulate(plus, shape);
        const SimReport rs = simulate(serial, shape);
        const std::string util =
            Table::fmt(rb.utilization(ArrayType::M), 2) + "/" +
            Table::fmt(rb.utilization(ArrayType::G), 2) + "/" +
            Table::fmt(rb.utilization(ArrayType::E), 2);
        table.addRow({ Table::fmt(gbps, 0),
                       Table::fmt(rb.inferencesPerSecond(), 1),
                       Table::fmt(rp.inferencesPerSecond(), 1),
                       Table::fmt(rs.makespan / rb.makespan, 2) + "x",
                       util });
    }
    table.print(std::cout);

    // Analytic overlay: where the roofline model puts each knee.
    for (const ProseConfig &config :
         { ProseConfig::bestPerf(), ProseConfig::bestPerfPlus() }) {
        const RooflineAnalysis analysis =
            analyzeRoofline(config, shape);
        std::cout << "\n" << config.name
                  << " analytic saturation: "
                  << Table::fmt(analysis.saturationBandwidth() / 1e9, 0)
                  << " GB/s (bounding pool: "
                  << toString(analysis.boundingPool().type)
                  << ", compute "
                  << Table::fmt(
                         analysis.boundingPool().computeSeconds * 1e3,
                         1)
                  << " ms)";
    }
    std::cout << "\n";

    std::cout << "\nPaper reference: BestPerf saturates first; BestPerf+ "
                 "carries more compute and\nkeeps gaining until ~360 "
                 "GB/s before creeping to its own roofline.\n";
    return 0;
}
