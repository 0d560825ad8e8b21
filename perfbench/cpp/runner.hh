/**
 * @file
 * Runs one workload for one seed and prints the result; writes and
 * checks the committed output digests.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line settings of one benchmark run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string goldenPath = "perfbench/golden/digests.txt";
    std::string outDir = ".bench_build/perfbench-out";
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
    /** Set up (cold, once), print {"setup_s", "failed"} and stop. */
    bool setupOnly = false;
    /** setup_s of earlier --setup-only processes; the run reports the
     *  median of these and its own. */
    std::vector<double> priorSetupS;
};

/** A metric as printed: name and unit. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** The end-to-end metrics every untraced run prints. */
const std::vector<MetricSpec> &endToEndMetrics();
/** The per-layer metrics every traced run prints (0 where a workload
 *  does not load the layer). */
const std::vector<MetricSpec> &perLayerMetrics();

/** Benchmark one workload; returns the process exit code. */
int runBenchmark(const RunOptions &options);

/**
 * Recompute the committed digests: every deck entry of every workload
 * for the default seed 1 and the held-out seed 2, through both the plain
 * and the traced path (which must agree), written to `path`. Returns the
 * process exit code.
 */
int writeGolden(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HH
