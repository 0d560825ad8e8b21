/**
 * @file
 * Serve drill: a guided tour of the open-loop serving front end. Walks
 * the robustness story end to end:
 *
 *   1. build a serving spec — seeded Poisson arrivals at 70% of fleet
 *      capacity, latency SLO derived from the modeled batch service
 *      time — and echo what the stack will do;
 *   2. run the healthy baseline and read the report;
 *   3. kill one of the four instances mid-stream (arrival-indexed
 *      chaos campaign) and watch admission control, deadline-aware
 *      shedding, and retry-with-backoff keep the fleet inside its SLO;
 *   4. replay the chaos run and verify it is bit-identical;
 *   5. double the offered load and watch graceful degradation shed
 *      load instead of collapsing.
 *
 * Build & run:  ./build/examples/serve_drill
 */

#include <iostream>
#include <string>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "serve/serve_sim.hh"
#include "serve/service_model.hh"

using namespace prose;

int
main(int argc, char **argv)
{
    bench::rejectArgs(argc, argv);
    std::cout << "ProSE serve drill\n=================\n\n";

    // --- 1. The serving spec -------------------------------------------
    ServeSpec spec;
    spec.model = BertShape{ 2, 256, 4, 1024, 1, 64 };
    spec.batcher.buckets = { 128, 256 };
    spec.batcher.maxBatch = 4;
    spec.instanceCount = 4;
    spec.arrivals.seed = 2022;
    spec.arrivals.count = 1200;
    spec.arrivals.minResidues = 126;
    spec.arrivals.maxResidues = 126;
    const ServiceModel model(spec.instance, spec.model,
                             spec.dispatchOverheadSeconds);
    const double batch_service =
        model.seconds(128, spec.batcher.maxBatch);
    spec.arrivals.ratePerSecond =
        0.7 * model.capacityPerSecond(128, spec.batcher.maxBatch,
                                      spec.instanceCount);
    spec.sloSeconds = 8.0 * batch_service;

    std::cout << "fleet: " << spec.instanceCount << " x "
              << spec.instance.name << "\n"
              << "stream: " << spec.arrivals.count
              << " Poisson arrivals at "
              << Table::fmt(spec.arrivals.ratePerSecond, 0)
              << "/s (70% of batched fleet capacity)\n"
              << "batch service (len 128 x " << spec.batcher.maxBatch
              << "): " << Table::fmt(batch_service * 1e3, 3)
              << " ms; per-request SLO: "
              << Table::fmt(spec.sloSeconds * 1e3, 3) << " ms\n\n";

    // --- 2. Healthy baseline -------------------------------------------
    std::cout << "--- healthy baseline ---\n";
    const ServeSim sim(spec);
    const ServeReport healthy = sim.run();
    std::cout << healthy.describe() << "\n";

    // --- 3. Chaos: kill one instance mid-stream ------------------------
    const std::string campaign_text =
        "kill_instance=1@#" + std::to_string(spec.arrivals.count / 2);
    std::cout << "--- chaos drill: " << campaign_text << " ---\n";
    const CampaignSpec campaign = CampaignSpec::parse(campaign_text);
    FaultInjector injector(campaign);
    const ServeReport chaos = sim.run(&injector);
    std::cout << chaos.describe() << "\n";

    const double retention = sloRetention(healthy, chaos);
    std::cout << "SLO retention (chaos goodput / healthy goodput): "
              << Table::fmt(retention, 3) << "\n\n";
    if (chaos.lost() != 0)
        fatal("chaos run lost ", chaos.lost(), " request(s)");
    if (retention < 0.9)
        fatal("fleet retained only ", Table::fmt(retention, 3),
              " of healthy goodput after one death (gate: 0.9)");

    // --- 4. Deterministic replay ---------------------------------------
    std::cout << "--- deterministic replay ---\n";
    FaultInjector replay_injector(campaign);
    const ServeReport replay = sim.run(&replay_injector);
    const bool identical = replay.describe() == chaos.describe();
    std::cout << "chaos replay identical: " << (identical ? "yes" : "NO")
              << "\n\n";
    if (!identical)
        fatal("serve chaos replay diverged");

    // --- 5. Graceful degradation under overload ------------------------
    std::cout << "--- overload: 2x capacity, bounded queue ---\n";
    ServeSpec overload = spec;
    overload.arrivals.ratePerSecond *= 2.0 / 0.7;
    overload.admission.maxQueueDepth = 64;
    overload.batcher.overloadDepth = 16;
    const ServeReport degraded = ServeSim(overload).run();
    std::cout << degraded.describe() << "\n";
    if (degraded.lost() != 0)
        fatal("overload run lost ", degraded.lost(), " request(s)");
    if (degraded.done == 0)
        fatal("overload collapsed goodput to zero");
    if (degraded.completedLate != 0)
        fatal("overload let ", degraded.completedLate,
              " request(s) finish past their deadline");

    std::cout << "Shed early, batch to the SLO, retry off the dead "
                 "instance: every request accounted for, goodput "
                 "intact.\n";
    return 0;
}
