/**
 * @file
 * Fault-injection campaign sweep: the robustness exhibit. Three stages,
 * each a table:
 *
 *  1. ABFT coverage — seeded single-bit accumulator flips at several
 *     rates against the Huang-Abraham checksum checker on the
 *     register-accurate functional simulator; reports detection and
 *     location coverage and the residual output error after correction.
 *  2. Link-fault recovery — transfer error/timeout rates against the
 *     exponential-backoff retry policy on the performance simulator;
 *     reports retries, abandoned transfers, and the latency charged.
 *  3. Degraded-mode survival — kill one array of each type plus one
 *     system instance mid-run; reports failover, re-sharding, and
 *     throughput retention.
 *
 * `--quick` trims the sweep for smoke-test use under ctest.
 */

#include <chrono>
#include <cstring>

#include "bench_util.hh"

#include "accel/system.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "fault/fault_injector.hh"
#include "systolic/functional_sim.hh"

using namespace prose;
using namespace prose::bench;

namespace {

Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
    return m;
}

/** One ABFT campaign: flips at `rate`, n repeats, coverage + error. */
void
abftRow(Table &table, double rate, unsigned repeats)
{
    Rng data_rng(7);
    AbftOptions abft;
    abft.enabled = true;
    double max_err = 0.0;
    std::uint64_t injected = 0, flagged = 0, located = 0, corrected = 0;
    for (unsigned i = 0; i < repeats; ++i) {
        const Matrix a = randomMatrix(data_rng, 96, 128);
        const Matrix b = randomMatrix(data_rng, 128, 96);

        FunctionalSimulator clean;
        const Matrix reference = clean.dataflow1(a, b, 1.0f, nullptr);

        CampaignSpec spec;
        spec.seed = 42 + i;
        spec.accFlipRate = rate;
        FaultInjector injector(spec);
        FunctionalSimulator sim;
        sim.setFaultInjector(&injector);
        sim.setAbft(abft);
        const Matrix faulted = sim.dataflow1(a, b, 1.0f, nullptr);
        max_err = std::max(
            max_err,
            static_cast<double>(Matrix::maxAbsDiff(reference, faulted)));
        for (const FaultEvent &event : injector.events())
            if (event.kind == FaultKind::AccTransientFlip)
                ++injected;
        flagged += sim.abftStats().tilesFlagged;
        located += sim.abftStats().locatedElements;
        corrected += sim.abftStats().correctedElements;
    }
    const double coverage =
        injected > 0 ? 100.0 * static_cast<double>(located) /
                           static_cast<double>(injected)
                     : 100.0;
    table.addRow({ Table::fmt(rate, 6), std::to_string(injected),
                   std::to_string(flagged),
                   Table::fmt(coverage, 1) + "%",
                   std::to_string(corrected),
                   Table::fmt(max_err, 6) });
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
                  "\"; usage: fault_campaign [--quick]");
    }

    // ------------------------------------------------------------------
    banner("ABFT coverage vs accumulator flip rate (Huang-Abraham)");
    {
        Table table({ "flip_rate", "injected", "tiles_flagged", "located",
                      "corrected", "max_out_err" });
        const unsigned repeats = quick ? 2 : 6;
        for (double rate : { 2e-4, 1e-3, 4e-3 })
            abftRow(table, rate, repeats);
        table.print(std::cout);
        std::cout << "\nFlips land in fp32 accumulator bits [16,31] (the "
                     "architecturally visible\nhalf under truncating "
                     "reads); located flips are corrected from the row\n"
                     "checksum before the SIMD passes consume them.\n";
    }

    // ------------------------------------------------------------------
    banner("Site-pinned stuck bit: faults land only on the armed site");
    {
        // A stuck bit pinned to the M-type site arms only M0's
        // accumulator corruption; the same live campaign leaves G0
        // unarmed. Both arrays run the requested engine: the injector
        // corrupts each finished tile once, after whichever engine
        // computed it. The table shows the stuck-bit events landing on
        // M0 alone while one injector is attached to both arrays.
        const std::size_t seq = quick ? 48 : 96;
        const std::size_t hidden = quick ? 128 : 256;
        Rng data_rng(11);
        const Matrix a = randomMatrix(data_rng, seq, hidden);
        const Matrix b = randomMatrix(data_rng, hidden, hidden);

        CampaignSpec spec;
        spec.seed = 42;
        // Stuck-at-zero on a high mantissa bit in the architecturally
        // visible half: hidden-dim dot products of uniform(-1,1) data
        // land away from exact dyadic values, so the bit is set (and
        // the fault visible) at every sweep size here — unlike a stuck
        // exponent bit, which is a no-op whenever the cell already
        // carries it.
        StuckBitFault stuck;
        stuck.site = "M0";
        stuck.row = 1;
        stuck.col = 2;
        stuck.bit = 20;
        stuck.stuckHigh = false;
        spec.stuckBits.push_back(stuck);
        FaultInjector injector(spec);
        FunctionalSimulator sim;
        sim.setFaultInjector(&injector);

        auto countStuck = [&injector] {
            std::uint64_t n = 0;
            for (const FaultEvent &event : injector.events())
                if (event.kind == FaultKind::AccStuckBit)
                    ++n;
            return n;
        };

        // Wall-clock times go to stderr: stdout holds modelled results
        // only, so it is the same on every run.
        Table table({ "dataflow", "site", "armed", "stuck_events" });
        std::uint64_t seen = 0;
        const auto timeRow = [&](const char *name, const char *site,
                                 auto &&run) {
            const auto start = std::chrono::steady_clock::now();
            run();
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            const std::uint64_t total = countStuck();
            const std::uint64_t fresh = total - seen;
            seen = total;
            table.addRow({ name, site,
                           injector.armsAccumulators(site) ? "yes" : "no",
                           std::to_string(fresh) });
            std::cerr << "fault_campaign: " << name << " on " << site
                      << " took " << Table::fmt(ms, 2) << " ms wall\n";
        };
        timeRow("dataflow1", "M0",
                [&] { (void)sim.dataflow1(a, b, 1.0f, nullptr); });
        timeRow("dataflow2", "G0",
                [&] { (void)sim.dataflow2(a, b, 1.0f, nullptr); });
        table.print(std::cout);
        std::cout << "\nOnly the armed M-type site records stuck-bit "
                     "events. Both arrays run\nthe requested engine with "
                     "the campaign attached; the unarmed G-type\narray "
                     "sees no corruption.\n";

        if (countStuck() == 0)
            fatal("site-pinned stuck bit never fired on the armed site");
    }

    // ------------------------------------------------------------------
    banner("Link-fault recovery vs retry policy (PerfSim)");
    {
        const ProseConfig config = ProseConfig::bestPerf();
        const BertShape shape{ 12, 768, 12, 3072,
                               quick ? 4ull : 16ull, 128 };
        const SimReport healthy = PerfSim(config).run(shape);

        Table table({ "err_rate", "timeout_rate", "max_att", "retries",
                      "timeouts", "abandoned", "retry(ms)", "slowdown" });
        for (double err_rate : { 1e-3, 1e-2 }) {
            for (std::uint32_t max_attempts : { 1u, 4u }) {
                CampaignSpec spec;
                spec.seed = 42;
                spec.linkErrorRate = err_rate;
                spec.linkTimeoutRate = err_rate / 10.0;
                FaultInjector injector(spec);
                SimOptions options;
                options.injector = &injector;
                options.retry.maxAttempts = max_attempts;
                PerfSim sim(config, options);
                const SimReport report = sim.run(shape);
                table.addRow(
                    { Table::fmt(err_rate, 4),
                      Table::fmt(spec.linkTimeoutRate, 4),
                      std::to_string(max_attempts),
                      std::to_string(report.taskRetries),
                      std::to_string(report.linkTimeouts),
                      std::to_string(report.abandonedTransfers),
                      Table::fmt(report.retrySeconds * 1e3, 3),
                      Table::fmt(report.makespan / healthy.makespan,
                                 3) });
            }
        }
        table.print(std::cout);
        std::cout << "\nA single-attempt budget abandons every faulted "
                     "transfer; four attempts\nabsorb the same campaign "
                     "with bounded slowdown.\n";
    }

    // ------------------------------------------------------------------
    banner("Degraded-mode survival: array + instance kills");
    {
        SystemConfig sys_config;
        const ProseSystem system(sys_config);
        const BertShape shape{ 12, 768, 12, 3072,
                               quick ? 8ull : 32ull, 128 };
        const SystemReport healthy = system.run(shape);

        // Kill one array of each type and one instance mid-run.
        CampaignSpec spec;
        spec.seed = 42;
        const double mid = healthy.makespan * 0.5;
        spec.arrayKills = { ArrayKill{ 'M', 0, mid },
                            ArrayKill{ 'G', 0, mid },
                            ArrayKill{ 'E', 0, mid } };
        spec.instanceKills = { InstanceKill{ 1, mid } };
        FaultInjector injector(spec);
        const SystemReport report = system.run(shape, &injector);

        Table table({ "metric", "healthy", "degraded" });
        table.addRow({ "makespan(ms)", Table::fmt(healthy.makespan * 1e3, 2),
                       Table::fmt(report.makespan * 1e3, 2) });
        table.addRow({ "inf/s",
                       Table::fmt(healthy.inferencesPerSecond(), 1),
                       Table::fmt(report.inferencesPerSecond(), 1) });
        table.addRow({ "failed_instances", "0",
                       std::to_string(report.failedInstances) });
        table.addRow({ "resharded_inferences", "0",
                       std::to_string(report.reshardedInferences) });
        table.addRow({ "reshard_tail(ms)", "0",
                       Table::fmt(report.reshardSeconds * 1e3, 2) });
        table.addRow({ "throughput_retention", "1.000",
                       Table::fmt(report.throughputRetention, 3) });
        table.print(std::cout);

        if (report.inferencesPerSecond() <= 0.0)
            fatal("degraded system produced zero throughput");
        std::cout << "\nSurvivor pools absorb the dead arrays at reduced "
                     "aggregate rate; the\nkilled instance's unfinished "
                     "shard re-runs on the survivors as a\nrecovery "
                     "wave.\n";
    }

    return 0;
}
