#include "runner.hh"

#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "numerics/kernels/kernel_dispatch.hh"
#include "systolic/fsim_mode.hh"
#include "workloads.hh"

namespace perfbench {

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "embed_variants")
        return makeEmbedVariants();
    if (name == "dse_sweep")
        return makeDseSweep();
    if (name == "fleet_chaos")
        return makeFleetChaos();
    if (name == "fsim_faults")
        return makeFsimFaults();
    return nullptr;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "embed_variants", "dse_sweep", "fleet_chaos", "fsim_faults"
    };
    return names;
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> metrics = {
        { "items_per_s", "1/s" },
        { "setup_s", "s" },
        { "peak_rss_mb", "MB" },
    };
    return metrics;
}

namespace {

/** Modules whose self-time share of a step the traced run reports. */
const char *const kModules[] = { "model", "trace",    "accel", "dse",
                                 "power", "baseline", "serve", "systolic",
                                 "fault", "bench" };

} // namespace

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> metrics = [] {
        std::vector<MetricSpec> m = {
            { "model.tokenize_us", "us" },
            { "model.forward_ms_b1", "ms" },
            { "model.forward_ms_b4", "ms" },
            { "model.forward_gflops", "GFLOP/s" },
            { "model.layer_ms_p50", "ms" },
            { "model.layer_ms_max", "ms" },
            { "trace.ops_per_step", "count" },
            { "common.pool_dispatches_per_step", "count" },
            { "accel.perfsim_ms", "ms" },
            { "accel.perfsim_calls_per_step", "count" },
            { "trace.synth_ms", "ms" },
            { "accel.trace_share", "ratio" },
            { "dse.evaluate_ms", "ms" },
            { "dse.evals_per_step", "count" },
            { "dse.useful_eval_ratio", "ratio" },
            { "power.eval_us", "us" },
            { "baseline.a100_ms", "ms" },
            { "serve.run_ms_healthy", "ms" },
            { "serve.run_ms_chaos", "ms" },
            { "serve.host_ns_per_request", "ns" },
            { "serve.done_ratio", "ratio" },
            { "serve.retries_per_step", "count" },
            { "serve.service_model_ms", "ms" },
            { "accel.system_run_ms", "ms" },
            { "accel.resharded_inferences", "count" },
            { "systolic.df1_ms", "ms" },
            { "systolic.df2_ms", "ms" },
            { "systolic.df3_ms", "ms" },
            { "systolic.host_ns_per_mac", "ns" },
            { "systolic.matmul_cycles_per_step", "cycles" },
            { "systolic.validate_ms", "ms" },
            { "fault.events_per_step", "count" },
            { "fault.abft_flagged_tiles", "count" },
            { "fault.abft_corrected", "count" },
            { "fault.armed_call_share", "ratio" },
            { "trace_overhead", "ratio" },
        };
        for (const char *module : kModules)
            m.push_back({ std::string("self_share.") + module, "ratio" });
        return m;
    }();
    return metrics;
}

namespace {

/** Committed digests, then the first digest seen per deck entry. */
class DigestBook
{
  public:
    /** Load `path`; false (with `error`) when unreadable or malformed. */
    bool
    load(const std::string &path, std::string &error)
    {
        std::ifstream in(path);
        if (!in) {
            error = "cannot read digest file " + path;
            return false;
        }
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string workload, seed, digest;
            std::size_t local = 0;
            if (!(fields >> workload >> seed >> local >> digest) ||
                digest.size() != 16) {
                error = "malformed digest line: " + line;
                return false;
            }
            golden_[key(workload, seed, local)] =
                std::strtoull(digest.c_str(), nullptr, 16);
        }
        return true;
    }

    /** Failure text for a mismatch, empty when the digest checks out. */
    std::string
    check(const Workload &wl, std::uint64_t seed, std::size_t index,
          const StepResult &res)
    {
        const std::size_t local = index % wl.deckSize();
        const std::string seen_key = key(wl.name(), "-", local);
        const auto seen = seen_.find(seen_key);
        if (seen == seen_.end())
            seen_[seen_key] = res.digest;
        else if (seen->second != res.digest)
            return "digest " + hex64(res.digest) + " differs from the " +
                   hex64(seen->second) + " of the same input earlier";
        if (!res.goldenComparable)
            return "";
        const std::string seed_text =
            wl.seedFree(local) ? "*" : std::to_string(seed);
        const auto golden =
            golden_.find(key(wl.name(), seed_text, wl.goldenIndex(local)));
        if (golden != golden_.end() && golden->second != res.digest)
            return "digest " + hex64(res.digest) + " != committed " +
                   hex64(golden->second);
        if (golden != golden_.end())
            ++goldenHits_;
        return "";
    }

    /** Steps whose digest matched a committed one. */
    std::uint64_t goldenHits() const { return goldenHits_; }

  private:
    static std::string
    key(const std::string &workload, const std::string &seed,
        std::size_t local)
    {
        return workload + ' ' + seed + ' ' + std::to_string(local);
    }

    std::map<std::string, std::uint64_t> golden_;
    std::map<std::string, std::uint64_t> seen_;
    std::uint64_t goldenHits_ = 0;
};

/** Run one step under a root span and check its digest. */
StepResult
checkedStep(Workload &wl, DigestBook &book, std::uint64_t seed,
            std::size_t index, bool traced, double &ms)
{
    tracer().setStep(static_cast<std::int64_t>(index));
    StepResult res;
    {
        Span root("bench.step");
        res = wl.step(index, traced);
        ms = root.end();
    }
    if (res.failure.empty())
        res.failure = book.check(wl, seed, index, res);
    if (!res.failure.empty())
        std::cerr << "perfbench: " << wl.name() << " step " << index
                  << " failed: " << res.failure << "\n";
    return res;
}

/**
 * Closed loop: whole cycles of steps until `seconds` have passed. A
 * traced phase runs each step's probe after it, outside its timing.
 */
PhaseStats
runPhase(Workload &wl, DigestBook &book, std::uint64_t seed,
         double seconds, bool traced)
{
    PhaseStats stats;
    tracer().setEnabled(traced);
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0;; ++i) {
        const double elapsed = static_cast<double>(nowNs() - t0) / 1e9;
        if (i > 0 && i % wl.cycleSteps() == 0 && elapsed >= seconds)
            break;
        double ms = 0.0;
        const StepResult res = checkedStep(wl, book, seed, i, traced, ms);
        stats.record(ms, res);
        if (traced) {
            tracer().setStep(-1);
            wl.probe(i);
        }
    }
    stats.elapsedS = static_cast<double>(nowNs() - t0) / 1e9;
    tracer().setEnabled(false);
    return stats;
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

/** CPU brand string from CPUID (no file reads). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
#else
    return "unknown";
#endif
}

/**
 * Peak resident set of this program image. VmHWM belongs to the address
 * space exec created; getrusage's ru_maxrss would also carry the peak
 * of whatever process exec'd us (the Python launcher), so it is only
 * the fallback.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
jsonText(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
hostFacts(const RunOptions &options, unsigned lanes)
{
    std::ostringstream os;
    os << "{\"cpu\": " << jsonText(cpuModel())
       << ", \"nproc\": " << onlineCpus() << ", \"lanes\": " << lanes
       << ", \"simd_tier\": "
       << jsonText(prose::kernels::toString(
              prose::kernels::activeSimdTier()))
       << ", \"fsim_mode\": "
       << jsonText(prose::toString(prose::defaultFsimMode()))
       << ", \"compiler\": " << jsonText(PERFBENCH_COMPILER)
       << ", \"flags\": " << jsonText(PERFBENCH_FLAGS)
       << ", \"build_type\": " << jsonText(PERFBENCH_BUILD_TYPE)
       << ", \"commit\": " << jsonText(options.commit)
       << ", \"source_digest\": " << jsonText(options.sourceDigest) << "}";
    return os.str();
}

std::string
metricsJson(const std::vector<MetricSpec> &specs,
            const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto it = values.find(specs[i].name);
        out += (i ? ", " : "") + jsonText(specs[i].name) + ": {\"value\": " +
               jsonNumber(it == values.end() ? 0.0 : it->second) +
               ", \"unit\": " + jsonText(specs[i].unit) + "}";
    }
    return out + "}";
}

} // namespace

int
runBenchmark(const RunOptions &options)
{
    std::unique_ptr<Workload> wl = makeWorkload(options.workload);
    if (!wl) {
        std::cerr << "perfbench: unknown workload '" << options.workload
                  << "'\n";
        return 2;
    }
    const unsigned lanes = wl->lanes();
    if (lanes > onlineCpus()) {
        std::cerr << "perfbench: " << wl->name() << " pins " << lanes
                  << " lanes but only " << onlineCpus()
                  << " CPUs are online; refusing to run\n";
        return 2;
    }
    // The library's pool reads PROSE_THREADS when it is first used.
    setenv("PROSE_THREADS", std::to_string(lanes).c_str(), 1);
    if (prose::ThreadPool::global().parallelism() != lanes) {
        std::cerr << "perfbench: could not pin the pool to " << lanes
                  << " lanes\n";
        return 2;
    }

    DigestBook book;
    std::string error;
    if (!book.load(options.goldenPath, error)) {
        std::cerr << "perfbench: " << error << "\n";
        return 2;
    }

    // Set-up: build the workload's state and run one untimed warm-up
    // step, so cold-start cost lands here and not in the measurement.
    // This is the process's only set-up, so it is a cold one.
    PhaseStats warm;
    const std::int64_t t0 = nowNs();
    tracer().setStep(-1);
    tracer().setEnabled(options.trace);
    wl->setup(options.seed);
    tracer().setEnabled(false);
    {
        double ms = 0.0;
        const StepResult res =
            checkedStep(*wl, book, options.seed, 0, false, ms);
        warm.record(ms, res);
    }
    const double setup_s = static_cast<double>(nowNs() - t0) / 1e9;
    if (options.setupOnly) {
        std::cout << "{\"setup_s\": " << jsonNumber(setup_s)
                  << ", \"failed\": " << warm.failed << "}" << std::endl;
        return 0;
    }
    std::vector<double> setups = options.priorSetupS;
    setups.push_back(setup_s);

    PhaseStats measured;
    std::map<std::string, double> values;
    std::vector<MetricSpec> specs;
    if (!options.trace) {
        measured = runPhase(*wl, book, options.seed, options.seconds, false);
        values["items_per_s"] = measured.itemsPerSecond();
        values["setup_s"] = prose::percentile(setups, 50.0);
        values["peak_rss_mb"] = peakRssMb();
        specs = endToEndMetrics();
    } else {
        // Untraced and traced halves of the same length; their step time
        // per item gives the tracing overhead (probes fall outside it).
        const PhaseStats plain =
            runPhase(*wl, book, options.seed, options.seconds / 2, false);
        measured =
            runPhase(*wl, book, options.seed, options.seconds / 2, true);
        wl->finish();
        values = wl->samples().reduce();
        if (plain.items > 0 && measured.items > 0)
            values["trace_overhead"] = measured.stepSecondsPerItem() /
                                           plain.stepSecondsPerItem() -
                                       1.0;

        // Self-time shares of the traced steps (set-up and probe spans
        // carry step -1 and are excluded).
        const std::vector<SpanRecord> &spans = tracer().spans();
        double step_ns = 0.0;
        for (const SpanRecord &s : spans) {
            if (s.step >= 0 && s.parent < 0)
                step_ns += static_cast<double>(s.endNs - s.startNs);
        }
        const auto self = moduleSelfNs(spans);
        for (const char *module : kModules) {
            const auto it = self.find(module);
            values[std::string("self_share.") + module] =
                it == self.end() || step_ns <= 0.0
                    ? 0.0
                    : static_cast<double>(it->second) / step_ns;
        }
        measured.attempted += plain.attempted;
        measured.failed += plain.failed;

        const std::string trace_path = options.outDir + "/" + wl->name() +
                                       "-seed" +
                                       std::to_string(options.seed) +
                                       ".trace.json";
        if (!tracer().writeChromeTrace(trace_path, wl->name()))
            std::cerr << "perfbench: could not write " << trace_path << "\n";
        specs = perLayerMetrics();
    }

    const std::uint64_t attempted = measured.attempted + warm.attempted;
    const std::uint64_t failed = measured.failed + warm.failed;
    const bool correct = failed == 0 && attempted > 0;
    const std::string metrics = metricsJson(specs, values);

    // The run record: host facts, step counts, the step-time median and
    // the tail percentile where enough steps back it (>= 10 samples
    // beyond p90), and every step time in run order.
    std::ostringstream record;
    record << "{\"workload\": " << jsonText(wl->name())
           << ", \"seed\": " << options.seed
           << ", \"trace\": " << (options.trace ? 1 : 0)
           << ", \"seconds\": " << jsonNumber(options.seconds)
           << ", \"item\": " << jsonText(wl->itemName())
           << ", \"steps\": " << measured.stepMs.size()
           << ", \"golden_checked_steps\": " << book.goldenHits()
           << ", \"setup_s_samples\": [";
    for (std::size_t i = 0; i < setups.size(); ++i)
        record << (i ? ", " : "") << jsonNumber(setups[i]);
    record << "]"
           << ", \"step_ms_p50\": "
           << (measured.stepMs.empty()
                   ? std::string("null")
                   : jsonNumber(prose::percentile(measured.stepMs, 50.0)))
           << ", \"step_ms_p90\": "
           << (percentileReportable(measured.stepMs.size(), 90)
                   ? jsonNumber(prose::percentile(measured.stepMs, 90.0))
                   : std::string("null"))
           << ", \"step_ms\": [";
    for (std::size_t i = 0; i < measured.stepMs.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.4f", i ? ", " : "",
                      measured.stepMs[i]);
        record << buf;
    }
    record << "]"
           << ", \"host\": " << hostFacts(options, lanes)
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": " << metrics << "}";
    std::ofstream(options.outDir + "/results.jsonl", std::ios::app)
        << record.str() << "\n";
    std::cout << record.str() << "\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": " << metrics
              << "}" << std::endl;
    return 0;
}

int
writeGolden(const std::string &path)
{
    const std::uint64_t seeds[] = { 1, 2 };
    std::ostringstream out;
    out << "# perfbench output digests (FNV-1a 64 over exact bits).\n"
        << "# <workload> <seed, or * for seed-independent inputs> "
           "<deck index> <digest>\n"
        << "# Regenerate only in a change whose purpose is a modelled-"
           "result change:\n"
        << "#   python3 perfbench/run.py --write-golden\n";
    for (const std::string &name : workloadNames()) {
        for (const std::uint64_t seed : seeds) {
            std::unique_ptr<Workload> wl = makeWorkload(name);
            wl->setup(seed);
            for (std::size_t i = 0; i < wl->deckSize(); ++i) {
                const StepResult plain = wl->step(i, false);
                const StepResult traced = wl->step(i, true);
                if (!plain.failure.empty() || !traced.failure.empty() ||
                    plain.digest != traced.digest) {
                    std::cerr << "perfbench: " << name << " seed " << seed
                              << " step " << i << " does not check out: "
                              << plain.failure << traced.failure << "\n";
                    return 1;
                }
                if (!plain.goldenComparable ||
                    (wl->seedFree(i) && seed != seeds[0]))
                    continue;
                out << name << ' '
                    << (wl->seedFree(i) ? "*" : std::to_string(seed)) << ' '
                    << wl->goldenIndex(i) << ' ' << hex64(plain.digest)
                    << "\n";
            }
        }
    }
    std::ofstream file(path);
    file << out.str();
    if (!file) {
        std::cerr << "perfbench: cannot write " << path << "\n";
        return 1;
    }
    return 0;
}

} // namespace perfbench
