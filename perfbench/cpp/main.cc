/**
 * @file
 * perfbench command line.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--golden <digests.txt>] [--out-dir <dir>]
 *             [--commit <id>] [--source-digest <hex>]
 *             [--setup-only | --prior-setup-s <s>[,<s>...]]
 *   perfbench --write-golden <digests.txt>
 *   perfbench --list-metrics
 *
 * The last line of a benchmark run's standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. The line
 * before it is the run record with the host facts.
 *
 * --setup-only sets up once, prints {"setup_s", "failed"} and stops;
 * --prior-setup-s hands such cold set-up times to the real run, which
 * reports the median of them and its own.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "runner.hh"

namespace {

bool
parseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 19 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(text);
    return true;
}

/** Comma-separated non-negative seconds. */
bool
parseSeconds(const std::string &text, std::vector<double> &out)
{
    std::size_t at = 0;
    while (at <= text.size()) {
        const std::size_t comma = std::min(text.find(',', at), text.size());
        const std::string field = text.substr(at, comma - at);
        char *end = nullptr;
        const double v = std::strtod(field.c_str(), &end);
        if (field.empty() || *end != '\0' || !(v >= 0.0) || v > 1e6)
            return false;
        out.push_back(v);
        at = comma + 1;
    }
    return true;
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--golden <file>] "
                 "[--out-dir <dir>] [--commit <id>] "
                 "[--source-digest <hex>]\n"
                 "                 [--setup-only | --prior-setup-s <s,...>]\n"
              << "       perfbench --write-golden <file>\n"
              << "       perfbench --list-metrics\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions options;
    std::string golden_out;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics") {
            for (const auto &m : perfbench::endToEndMetrics())
                std::cout << "end_to_end " << m.name << ' ' << m.unit << "\n";
            for (const auto &m : perfbench::perLayerMetrics())
                std::cout << "per_layer " << m.name << ' ' << m.unit << "\n";
            return 0;
        }
        if (arg == "--setup-only") {
            options.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage("missing value after " + arg);
        const std::string value = argv[++i];
        std::uint64_t n = 0;
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            if (!parseUint(value, n))
                return usage("bad --seed '" + value + "'");
            options.seed = n;
            have_seed = true;
        } else if (arg == "--seconds") {
            if (!parseUint(value, n) || n == 0 || n > 3600)
                return usage("bad --seconds '" + value + "'");
            options.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            options.trace = value == "1";
            have_trace = true;
        } else if (arg == "--golden") {
            options.goldenPath = value;
        } else if (arg == "--out-dir") {
            options.outDir = value;
        } else if (arg == "--commit") {
            options.commit = value;
        } else if (arg == "--source-digest") {
            options.sourceDigest = value;
        } else if (arg == "--prior-setup-s") {
            if (!parseSeconds(value, options.priorSetupS))
                return usage("bad --prior-setup-s '" + value + "'");
        } else if (arg == "--write-golden") {
            golden_out = value;
        } else {
            return usage("unknown argument '" + arg + "'");
        }
    }
    if (!golden_out.empty())
        return perfbench::writeGolden(golden_out);
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");
    return perfbench::runBenchmark(options);
}
