/**
 * @file
 * Shared helpers for the per-figure/per-table benchmark binaries: the
 * paper's workload points, ProSE system-power computation, and common
 * headers. Each binary prints the rows/series of one paper exhibit; see
 * DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured.
 */

#ifndef PROSE_BENCH_BENCH_UTIL_HH
#define PROSE_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <iostream>
#include <vector>

#include "accel/perf_sim.hh"
#include "baseline/platform.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "power/power_model.hh"

namespace prose {
namespace bench {

/** One length/batch point of the Section 2.3 profiling sweep. */
struct LengthPoint
{
    std::uint64_t seqLen;
    std::uint64_t batch;
};

/**
 * The paper's profiling batch sizes ("24576, 12288, 6144, 2048, 512,
 * 128, and 64 for input lengths 32...2048"), which maximize inference
 * throughput within the A100's 40 GiB.
 */
inline std::vector<LengthPoint>
paperLengthSweep()
{
    return { { 32, 24576 }, { 64, 12288 }, { 128, 6144 }, { 256, 2048 },
             { 512, 512 },  { 1024, 128 }, { 2048, 64 } };
}

/** The paper's ProSE evaluation point: length 512, batch 128. */
inline BertShape
operatingPoint()
{
    return BertShape{ 12, 768, 12, 3072, 128, 512 };
}

/** BertShape for an arbitrary length point (BERT-base encoder). */
inline BertShape
shapeFor(const LengthPoint &point)
{
    return BertShape{ 12, 768, 12, 3072, point.batch, point.seqLen };
}

/** Simulate a config and return its report. */
inline SimReport
simulate(const ProseConfig &config, const BertShape &shape)
{
    return PerfSim(config).run(shape);
}

/** Whole-system ProSE power for a finished run. */
inline double
proseSystemWatts(const ProseConfig &config, const SimReport &report)
{
    const PowerModel power;
    return power.systemPowerWatts(config.groups,
                                  config.partialInputBuffer,
                                  report.cpuDuty);
}

/** inferences/s/W for a ProSE run. */
inline double
proseEfficiency(const ProseConfig &config, const SimReport &report)
{
    return report.inferencesPerSecond() /
           proseSystemWatts(config, report);
}

/** inferences/s/W for a baseline platform on a trace. */
inline double
platformEfficiency(const PlatformModel &platform, const BertShape &shape)
{
    const PlatformResult result =
        platform.costTrace(synthesizeBertTrace(shape));
    const double inf_per_s =
        static_cast<double>(shape.batch) / result.acceleratedSeconds;
    return inf_per_s / platform.watts();
}

/**
 * fatal() on any command-line argument: the exhibit binaries and the
 * arg-less examples take no flags, and a flag silently ignored would
 * look honoured.
 */
inline void
rejectArgs(int argc, char **argv)
{
    if (argc > 1)
        fatal(argv[0], ": unexpected argument \"", argv[1],
              "\"; this program takes no arguments");
}

/** Print a section banner. */
inline void
banner(const std::string &title)
{
    std::cout << "\n=== " << title << " ===\n\n";
}

} // namespace bench
} // namespace prose

#endif // PROSE_BENCH_BENCH_UTIL_HH
