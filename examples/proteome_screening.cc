/**
 * @file
 * Proteome-scale screening: how a deployed discovery engine actually
 * ingests work. Generates a synthetic proteome with a realistic
 * (log-normal) length distribution, buckets it into fixed-length
 * batches, simulates the whole screen on a four-instance ProSE host,
 * and reports throughput, padding overhead, and the energy ledger —
 * versus naively padding everything to the maximum length.
 *
 * Build & run:  ./build/examples/proteome_screening [num-proteins]
 */

#include <cstdlib>
#include <iostream>

#include "accel/batcher.hh"
#include "accel/energy_report.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "protein/proteome.hh"

using namespace prose;

int
main(int argc, char **argv)
{
    std::size_t count = 2000;
    if (argc > 2)
        fatal("unexpected argument \"", argv[2],
              "\"; usage: proteome_screening [num-proteins]");
    if (argc > 1) {
        std::uint64_t parsed = 0;
        if (!parseU64(argv[1], parsed) || parsed == 0)
            fatal("protein count must be a positive integer, got '",
                  argv[1], "'");
        count = parsed;
    }

    std::cout << "Proteome screening on ProSE\n"
              << "===========================\n\n";

    // 1. The workload: a synthetic proteome.
    Rng rng(2026);
    const auto proteome = synthesizeProteome(rng, count, ProteomeSpec{});
    const ProteomeStats stats = summarizeProteome(proteome);
    std::cout << "proteome: " << stats.count << " proteins, lengths "
              << stats.minLength << "-" << stats.maxLength << " (mean "
              << Table::fmt(stats.meanLength, 0) << ", median "
              << Table::fmt(stats.medianLength, 0) << "), "
              << Table::fmtInt(
                     static_cast<long long>(stats.totalResidues))
              << " residues total\n\n";

    // 2. Bucketed batching vs pad-to-max.
    std::vector<std::size_t> lengths;
    for (const auto &record : proteome)
        lengths.push_back(record.sequence.size());
    const BatchPlan bucketed = planBatches(lengths);

    BatcherSpec naive_spec;
    naive_spec.buckets = { 2048 };
    const BatchPlan naive = planBatches(lengths, naive_spec);

    const BertShape model{ 12, 768, 12, 3072, 1, 64 };
    const ProseConfig config = ProseConfig::bestPerf();
    const double bucketed_seconds =
        simulateBatchPlan(bucketed, config, model);
    const double naive_seconds = simulateBatchPlan(naive, config, model);

    Table plans({ "plan", "batches", "padding", "screen time(s)",
                  "proteins/s" });
    plans.addRow({ "length-bucketed",
                   std::to_string(bucketed.batches.size()),
                   Table::fmt(100.0 * bucketed.paddingOverhead(), 1) +
                       "%",
                   Table::fmt(bucketed_seconds, 2),
                   Table::fmt(count / bucketed_seconds, 0) });
    plans.addRow({ "pad-to-2048", std::to_string(naive.batches.size()),
                   Table::fmt(100.0 * naive.paddingOverhead(), 1) + "%",
                   Table::fmt(naive_seconds, 2),
                   Table::fmt(count / naive_seconds, 0) });
    plans.print(std::cout);
    std::cout << "\nbucketing speedup: "
              << Table::fmt(naive_seconds / bucketed_seconds, 2)
              << "x\n\n";

    // 3. Energy ledger for the dominant (512-token) bucket.
    const LengthBatch *big = nullptr;
    for (const auto &batch : bucketed.batches)
        if (batch.paddedLength == 512 &&
            (!big || batch.sequences > big->sequences))
            big = &batch;
    if (big) {
        BertShape shape = model;
        shape.batch = big->sequences;
        shape.seqLen = big->paddedLength;
        PerfSim sim(config);
        const SimReport report = sim.run(shape);
        const EnergyReport energy = buildEnergyReport(config, report);
        Table ledger({ "component", "energy (J)", "share" });
        const double total = energy.totalJoules();
        auto row = [&](const std::string &name, double joules) {
            ledger.addRow({ name, Table::fmt(joules, 3),
                            Table::fmt(100.0 * joules / total, 1) +
                                "%" });
        };
        row("M-Type arrays", energy.arrayBusyJoules[0] +
                                 energy.arrayIdleJoules[0]);
        row("G-Type arrays", energy.arrayBusyJoules[1] +
                                 energy.arrayIdleJoules[1]);
        row("E-Type arrays", energy.arrayBusyJoules[2] +
                                 energy.arrayIdleJoules[2]);
        row("host CPU", energy.cpuJoules);
        row("DRAM", energy.dramJoules);
        row("NVLink", energy.linkJoules);
        std::cout << "energy ledger for the largest 512-token batch ("
                  << big->sequences << " proteins, "
                  << Table::fmt(energy.joulesPerInference(report), 3)
                  << " J/inference):\n\n";
        ledger.print(std::cout);
    }
    return 0;
}
