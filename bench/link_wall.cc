/**
 * @file
 * The bandwidth wall, swept: how far double-buffered streaming,
 * on-link compression, and deeper DMA buffers push the host-link
 * roofline of Figure 20, and what multi-tenant lane sharing costs
 * once several models contend for the same physical link.
 *
 * Four exhibits:
 *   1. streaming mode x link bandwidth: inferences/s for serialized,
 *      double-buffered, and ideal streaming, with the double-buffer
 *      gain over serialized per point. Per task the modes always order
 *      serialized >= double-buffered >= ideal, but the greedy list
 *      scheduler can break that order for the makespan, or make a
 *      faster link slower, once threads outnumber the array pools
 *      (Graham's anomaly); the "anomaly" column flags those points;
 *   2. on-link compression at a fixed link: logical vs wire bytes and
 *      the throughput each modeled codec buys;
 *   3. DMA buffer depth: prefetch stall seconds as the depth grows;
 *   4. shared-link tenancy: combined and per-tenant slowdown plus the
 *      link wait the contention scheduler charges.
 *
 * Usage: link_wall [--quick]
 *   --quick  small shape and sparse sweep (the ctest smoke
 *            configuration; also validated against the analytic
 *            roofline's link-bound predicate).
 */

#include <array>
#include <cstring>
#include <limits>
#include <string>

#include "accel/roofline.hh"
#include "bench_util.hh"
#include "common/logging.hh"

using namespace prose;
using namespace prose::bench;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ProseConfig
configFor(double gbps, StreamMode mode,
          LinkCompression compression = LinkCompression::None,
          std::uint32_t buffer_depth = 2)
{
    ProseConfig config = ProseConfig::bestPerf();
    config.link = LinkSpec::custom(gbps);
    config.link.compression = compression;
    config.streaming.mode = mode;
    config.streaming.bufferDepth = buffer_depth;
    return config;
}

double
wireGiB(const SimReport &report)
{
    return static_cast<double>(report.wireBytesIn +
                               report.wireBytesOut) /
           (1024.0 * 1024.0 * 1024.0);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else
            fatal("unknown argument \"", argv[i],
                  "\"; usage: link_wall [--quick]");
    }

    banner("Bandwidth wall: streaming, compression, and contention");

    const BertShape shape = quick
                                ? BertShape{ 2, 768, 12, 3072, 1, 128 }
                                : operatingPoint();

    // --- 1. Streaming mode x bandwidth --------------------------------
    std::vector<double> sweep;
    for (double gbps = 45.0; gbps <= 630.0 + 1e-9; gbps += 45.0)
        sweep.push_back(gbps);
    if (quick)
        sweep = { 45.0, 240.0, 630.0 };

    Table stream_table({ "BW(GB/s)", "serial inf/s", "double inf/s",
                         "ideal inf/s", "double gain", "fill ms",
                         "drain ms", "anomaly" });
    std::array<double, 3> prev_makespan{ { kInf, kInf, kInf } };
    std::size_t anomalies = 0;
    for (const double gbps : sweep) {
        const SimReport serial =
            simulate(configFor(gbps, StreamMode::Serialized), shape);
        const SimReport dbuf =
            simulate(configFor(gbps, StreamMode::DoubleBuffered), shape);
        const SimReport ideal =
            simulate(configFor(gbps, StreamMode::Ideal), shape);
        // "order": the makespans break serialized >= double-buffered
        // >= ideal; "slower": some mode got slower than on the previous,
        // narrower link.
        const std::array<double, 3> makespan{
            { serial.makespan, dbuf.makespan, ideal.makespan } };
        std::string anomaly;
        if (!(makespan[0] + 1e-12 >= makespan[1] &&
              makespan[1] + 1e-12 >= makespan[2]))
            anomaly = "order";
        for (std::size_t m = 0; m < makespan.size(); ++m)
            if (makespan[m] > prev_makespan[m] + 1e-12) {
                anomaly += anomaly.empty() ? "slower" : "+slower";
                break;
            }
        prev_makespan = makespan;
        if (!anomaly.empty())
            ++anomalies;
        stream_table.addRow(
            { Table::fmt(gbps, 0),
              Table::fmt(serial.inferencesPerSecond(), 1),
              Table::fmt(dbuf.inferencesPerSecond(), 1),
              Table::fmt(ideal.inferencesPerSecond(), 1),
              Table::fmt(serial.makespan / dbuf.makespan, 2) + "x",
              Table::fmt(dbuf.fillSeconds * 1e3, 2),
              Table::fmt(dbuf.drainSeconds * 1e3, 2),
              anomaly.empty() ? "-" : anomaly });
    }
    stream_table.print(std::cout);
    std::cout << "\nscheduling anomalies: " << anomalies << " of "
              << sweep.size() << " bandwidths at " << shape.batch
              << " sequences on " << ProseConfig::bestPerf().threads
              << " threads\n";

    // Analytic overlay: the bandwidths at which the roofline model
    // still calls the design link-bound (the "wall" the streaming
    // modes are fighting).
    const RooflineAnalysis analysis =
        analyzeRoofline(ProseConfig::bestPerf(), shape);
    double wall_gbps = 0.0;
    for (const double gbps : sweep)
        if (analysis.linkBoundAt(gbps * 1e9))
            wall_gbps = gbps;
    std::cout << "\nroofline: link-bound up to "
              << Table::fmt(wall_gbps, 0)
              << " GB/s (analytic saturation "
              << Table::fmt(analysis.saturationBandwidth() / 1e9, 0)
              << " GB/s)\n";

    // --- 2. On-link compression at NVLink2-80 -------------------------
    banner("On-link compression (240 GB/s, double-buffered)");
    Table comp_table({ "codec", "wire GiB", "ratio", "inf/s" });
    const SimReport none = simulate(
        configFor(240.0, StreamMode::DoubleBuffered), shape);
    for (const LinkCompression codec :
         { LinkCompression::None, LinkCompression::ZeroRun,
           LinkCompression::Delta }) {
        const SimReport report = simulate(
            configFor(240.0, StreamMode::DoubleBuffered, codec), shape);
        PROSE_ASSERT(report.bytesIn == none.bytesIn &&
                         report.bytesOut == none.bytesOut,
                     "compression must not change logical traffic");
        PROSE_ASSERT(report.wireBytesIn <= none.wireBytesIn &&
                         report.wireBytesOut <= none.wireBytesOut,
                     "modeled codecs never expand the wire traffic");
        comp_table.addRow(
            { toString(codec), Table::fmt(wireGiB(report), 2),
              Table::fmt(wireGiB(report) / wireGiB(none), 3),
              Table::fmt(report.inferencesPerSecond(), 1) });
    }
    comp_table.print(std::cout);

    // --- 3. DMA buffer depth ------------------------------------------
    banner("DMA buffer depth (240 GB/s, double-buffered)");
    Table depth_table({ "depth", "inf/s", "prefetch stall ms" });
    double prev_stall = -1.0;
    for (const std::uint32_t depth : { 2u, 3u, 4u }) {
        const SimReport report =
            simulate(configFor(240.0, StreamMode::DoubleBuffered,
                               LinkCompression::None, depth),
                     shape);
        if (prev_stall >= 0.0)
            PROSE_ASSERT(report.prefetchStallSeconds <=
                             prev_stall + 1e-12,
                         "deeper buffers must not stall more");
        prev_stall = report.prefetchStallSeconds;
        depth_table.addRow(
            { std::to_string(depth),
              Table::fmt(report.inferencesPerSecond(), 1),
              Table::fmt(report.prefetchStallSeconds * 1e3, 2) });
    }
    depth_table.print(std::cout);

    // --- 4. Shared-link tenancy ---------------------------------------
    banner("Shared-link tenancy (240 GB/s, double-buffered)");
    const ProseConfig tenancy_config =
        configFor(240.0, StreamMode::DoubleBuffered);
    const SimReport solo = simulate(tenancy_config, shape);
    Table tenant_table({ "tenants", "combined inf/s",
                         "per-tenant slowdown", "link wait ms" });
    const std::vector<std::uint32_t> tenant_counts =
        quick ? std::vector<std::uint32_t>{ 1, 2 }
              : std::vector<std::uint32_t>{ 1, 2, 4 };
    for (const std::uint32_t tenants : tenant_counts) {
        std::vector<SimReport> locals;
        const SimReport combined = PerfSim(tenancy_config)
                                       .runShared(
                                           std::vector<BertShape>(
                                               tenants, shape),
                                           &locals);
        double worst = 0.0;
        for (const SimReport &local : locals)
            worst = std::max(worst, local.makespan / solo.makespan);
        tenant_table.addRow(
            { std::to_string(tenants),
              Table::fmt(combined.inferencesPerSecond(), 1),
              Table::fmt(worst, 2) + "x",
              Table::fmt(combined.linkWaitSeconds * 1e3, 2) });
    }
    tenant_table.print(std::cout);

    std::cout << "\nReading: double-buffering hides fill/drain behind "
                 "compute until the link itself\nis the bottleneck; "
                 "compression moves the wall left; tenancy pushes it "
                 "right back.\n";
    return 0;
}
