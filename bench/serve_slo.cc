/**
 * @file
 * serve_slo: the SLO-retention chaos exhibit. Runs the open-loop
 * serving front end (src/serve) through a scenario matrix — healthy
 * baseline, instance-kill chaos drills, a flash-crowd burst, and
 * sustained overload — and reports tail latency (p50/p99/p99.9),
 * goodput, the shed/timeout/retry decomposition, and the SLO-retention
 * ratio of every degraded run against the healthy twin.
 *
 * The headline drill is the acceptance scenario: four instances at 70%
 * utilization, one killed when request #N/2 arrives mid-stream. The
 * binary fatals if that drill loses a request or retains less than 90%
 * of healthy goodput, so the ctest smoke entry is a real robustness
 * gate, not a printout.
 *
 * Usage: serve_slo [--quick] [--requests N]
 *   --quick     smaller stream (the CI smoke configuration)
 *   --requests  override the stream length
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "serve/serve_sim.hh"
#include "serve/service_model.hh"

using namespace prose;

namespace {

/** The drill fleet: 4 instances serving fixed-length requests. */
ServeSpec
baseSpec(std::uint64_t count)
{
    ServeSpec spec;
    spec.model = BertShape{ 2, 256, 4, 1024, 1, 64 };
    spec.batcher.buckets = { 128, 256 };
    spec.batcher.maxBatch = 4;
    spec.batcher.overloadDepth = 64;
    spec.admission.maxQueueDepth = 256;
    spec.instanceCount = 4;
    spec.arrivals.seed = 2022;
    spec.arrivals.count = count;
    spec.arrivals.minResidues = 126;
    spec.arrivals.maxResidues = 126;
    const ServiceModel model(spec.instance, spec.model,
                             spec.dispatchOverheadSeconds);
    spec.arrivals.ratePerSecond =
        0.7 * model.capacityPerSecond(128, spec.batcher.maxBatch,
                                      spec.instanceCount);
    spec.sloSeconds = 8.0 * model.seconds(128, spec.batcher.maxBatch);
    return spec;
}

std::string
ms(double seconds)
{
    return Table::fmt(seconds * 1e3, 3);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t requests = 3000;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            requests = 600;
        } else if (arg == "--requests" && i + 1 < argc) {
            if (!parseU64(argv[++i], requests) || requests == 0)
                fatal("--requests needs a positive count, got \"",
                      argv[i], "\"");
        } else {
            fatal("unknown argument \"", arg,
                  "\"; usage: serve_slo [--quick] [--requests N]");
        }
    }

    std::cout << "serve_slo: open-loop SLO retention under chaos ("
              << requests << " requests, 4 instances, 70% load)\n\n";

    struct Scenario
    {
        std::string name;
        ServeSpec spec;
        std::string campaign; ///< empty = healthy
    };

    std::vector<Scenario> scenarios;
    scenarios.push_back({ "healthy", baseSpec(requests), "" });

    const std::string mid_kill =
        "kill_instance=1@#" + std::to_string(requests / 2);
    scenarios.push_back({ "kill-1of4-mid", baseSpec(requests),
                          mid_kill });
    scenarios.push_back({ "kill-2of4-mid", baseSpec(requests),
                          mid_kill + " kill_instance=3@#" +
                              std::to_string(3 * requests / 4) });

    {
        Scenario burst{ "flash-crowd", baseSpec(requests), "" };
        burst.spec.arrivals.kind = ArrivalKind::Bursty;
        burst.spec.arrivals.burstMultiplier = 4.0;
        burst.spec.arrivals.burstPeriodSeconds =
            100.0 / burst.spec.arrivals.ratePerSecond;
        scenarios.push_back(burst);
    }
    {
        Scenario overload{ "overload-2x", baseSpec(requests), "" };
        overload.spec.arrivals.ratePerSecond *= 2.0 / 0.7;
        overload.spec.admission.maxQueueDepth = 64;
        overload.spec.batcher.overloadDepth = 16;
        scenarios.push_back(overload);
    }

    Table table({ "scenario", "done", "shed", "timeout", "retries",
                  "p50 ms", "p99 ms", "p99.9 ms", "goodput/s",
                  "retention" });
    ServeReport healthy;
    double drill_retention = 0.0;
    std::uint64_t drill_lost = 0;
    for (const Scenario &scenario : scenarios) {
        const ServeSim sim(scenario.spec);
        ServeReport report;
        if (scenario.campaign.empty()) {
            report = sim.run();
        } else {
            FaultInjector injector(
                CampaignSpec::parse(scenario.campaign));
            report = sim.run(&injector);
        }
        if (scenario.name == "healthy")
            healthy = report;
        const double retention = sloRetention(healthy, report);
        if (scenario.name == "kill-1of4-mid") {
            drill_retention = retention;
            drill_lost = report.lost();
        }
        table.addRow({ scenario.name, std::to_string(report.done),
                       std::to_string(report.shed),
                       std::to_string(report.timedOut),
                       std::to_string(report.retries),
                       ms(report.p50Seconds), ms(report.p99Seconds),
                       ms(report.p999Seconds),
                       Table::fmt(report.goodputPerSecond, 0),
                       Table::fmt(retention, 3) });
        if (report.lost() != 0)
            fatal("scenario ", scenario.name, " lost ", report.lost(),
                  " request(s) — conservation violated");
    }
    table.print(std::cout);

    std::cout << "\nacceptance drill (kill 1 of 4 at request #"
              << requests / 2 << "): retention "
              << Table::fmt(drill_retention, 3) << ", lost "
              << drill_lost << "\n";
    if (drill_retention < 0.9)
        fatal("chaos drill retained only ",
              Table::fmt(drill_retention, 3),
              " of healthy goodput (gate: 0.9)");

    std::cout << "ok: every request accounted for; the mid-stream kill "
                 "kept >= 90% of healthy goodput\n";
    return 0;
}
