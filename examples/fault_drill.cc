/**
 * @file
 * Fault drill: a guided tour of the fault-injection / ABFT / recovery
 * stack. Walks one campaign end to end:
 *
 *   1. parse a campaign spec and echo its canonical form;
 *   2. inject accumulator faults into a functional-simulator matmul and
 *      let the Huang-Abraham checker detect, locate, and repair them;
 *   3. replay the campaign's link faults through the performance
 *      simulator's retry policy;
 *   4. kill an array and a system instance mid-run and watch the
 *      degraded-mode recovery re-shard the work;
 *   5. re-run the campaign from the same seed and verify the fault and
 *      recovery event log reproduces bit-for-bit.
 *
 * Build & run:  ./build/examples/fault_drill
 */

#include <iostream>

#include "accel/system.hh"
#include "bench_util.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "fault/fault_injector.hh"
#include "systolic/functional_sim.hh"

using namespace prose;

int
main(int argc, char **argv)
{
    bench::rejectArgs(argc, argv);
    std::cout << "ProSE fault drill\n=================\n\n";

    // --- 1. The campaign spec ------------------------------------------
    const std::string spec_text =
        "seed=2022 acc_flip_rate=5e-4 flip_bits=16:31 "
        "stuck=M0:3:5:30:1 link_error_rate=8e-3 link_timeout_rate=1e-3 "
        "kill_array=E:0@1e-2 kill_instance=1@1e-2";
    const CampaignSpec spec = CampaignSpec::parse(spec_text);
    std::cout << "campaign: " << spec.describe() << "\n\n";

    // --- 2. Accumulator faults vs ABFT ---------------------------------
    std::cout << "--- ABFT on the functional simulator ---\n";
    Rng rng(7);
    Matrix a(96, 128), b(128, 96);
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);

    FunctionalSimulator clean;
    const Matrix reference = clean.dataflow1(a, b, 1.0f, nullptr);

    FaultInjector injector(spec);
    AbftOptions abft;
    abft.enabled = true;
    FunctionalSimulator sim;
    sim.setFaultInjector(&injector);
    sim.setAbft(abft);
    const Matrix repaired = sim.dataflow1(a, b, 1.0f, nullptr);

    const AbftStats &stats = sim.abftStats();
    std::cout << "injected events so far: " << injector.events().size()
              << " (transient flips + stuck bit-30 at M0 PE(3,5))\n"
              << "tiles checked " << stats.tilesChecked << ", flagged "
              << stats.tilesFlagged << ", located "
              << stats.locatedElements << ", corrected "
              << stats.correctedElements << "\n"
              << "max |repaired - reference| = "
              << Matrix::maxAbsDiff(reference, repaired)
              << "  (bf16 output precision)\n\n";

    // --- 3. Link faults vs the retry policy ----------------------------
    std::cout << "--- link-fault retry on the performance simulator ---\n";
    const ProseConfig config = ProseConfig::bestPerf();
    const BertShape shape{ 12, 768, 12, 3072, 8, 128 };
    const SimReport healthy = PerfSim(config).run(shape);

    SimOptions options;
    options.injector = &injector;
    PerfSim perf(config, options);
    const SimReport faulted = perf.run(shape);
    std::cout << "transfer errors " << faulted.linkTransferErrors
              << ", timeouts " << faulted.linkTimeouts << ", retries "
              << faulted.taskRetries << ", abandoned "
              << faulted.abandonedTransfers << "\n"
              << "retry latency charged: " << faulted.retrySeconds * 1e3
              << " ms (makespan " << healthy.makespan * 1e3 << " -> "
              << faulted.makespan * 1e3 << " ms)\n\n";

    // --- 4. Array + instance kills -------------------------------------
    std::cout << "--- degraded-mode recovery at system scale ---\n";
    const ProseSystem system{ SystemConfig{} };
    const BertShape batch{ 12, 768, 12, 3072, 32, 128 };
    const SystemReport before = system.run(batch);
    FaultInjector sys_injector(spec);
    const SystemReport after = system.run(batch, &sys_injector);
    std::cout << "healthy makespan " << before.makespan * 1e3
              << " ms; degraded " << after.makespan * 1e3 << " ms\n"
              << "failed instances " << after.failedInstances
              << ", re-sharded inferences " << after.reshardedInferences
              << ", throughput retention " << after.throughputRetention
              << "\n\n";
    if (after.inferencesPerSecond() <= 0.0)
        fatal("degraded run lost all throughput");

    // --- 5. Determinism ------------------------------------------------
    std::cout << "--- deterministic replay ---\n";
    FaultInjector replay(spec);
    FunctionalSimulator sim2;
    sim2.setFaultInjector(&replay);
    sim2.setAbft(abft);
    sim2.dataflow1(a, b, 1.0f, nullptr);
    options.injector = &replay;
    PerfSim(config, options).run(shape);

    const bool identical =
        injector.eventLogText() == replay.eventLogText();
    std::cout << "event log replay identical: "
              << (identical ? "yes" : "NO") << " ("
              << replay.events().size() << " events)\n";
    if (!identical)
        fatal("fault campaign replay diverged");

    std::cout << "\nSame seed + same spec -> same faults, same "
                 "detections, same recovery.\n";
    return 0;
}
