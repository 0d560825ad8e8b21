/**
 * @file
 * Antibody binding-affinity screening — the paper's motivating drug
 * discovery workflow (Section 2.2) end-to-end:
 *
 *   1. Generate a Herceptin-like antibody Fab family and an independent
 *      BH1-like family, both binding the same HER2-like epitope, with
 *      hidden ground-truth affinities standing in for the wet lab.
 *   2. Extract Protein BERT features for every variant.
 *   3. Fit a regularized (ridge) regression on the training family.
 *   4. Rank the test-family candidates by predicted affinity and report
 *      Spearman rank correlation against the (held-out) ground truth.
 *   5. Estimate what the screening campaign costs on ProSE vs an A100.
 *
 * Build & run:  ./build/examples/protein_binding
 */

#include <algorithm>
#include <iostream>
#include <numeric>

#include "accel/perf_sim.hh"
#include "baseline/platform.hh"
#include "bench_util.hh"
#include "common/table.hh"
#include "model/bert_model.hh"
#include "protein/binding.hh"

using namespace prose;

int
main(int argc, char **argv)
{
    bench::rejectArgs(argc, argv);
    std::cout << "Antibody binding-affinity screening (Section 2.2)\n"
              << "==================================================\n\n";

    // 1. The two antibody families.
    BindingSpec spec;
    spec.fabLength = 160;
    BindingBenchmark benchmark(spec);
    const BindingDataset train = benchmark.makeTrainSet(39);
    const BindingDataset test = benchmark.makeTestSet(35);
    std::cout << "families: " << train.parentName << " ("
              << train.variants.size() << " variants, train) / "
              << test.parentName << " (" << test.variants.size()
              << " variants, independent test)\n";
    std::cout << "Fab length " << spec.fabLength << ", paratope "
              << benchmark.groundTruth().paratope().size()
              << " positions shared by both parents\n\n";

    // 2-4. Feature extraction + ridge + rank correlation.
    BertConfig config = BertConfig::tiny();
    config.maxSeqLen = 512;
    const BertModel model(config, 7);
    const BindingExperimentResult result =
        runBindingExperiment(model, train, test);
    std::cout << "train Spearman rho: "
              << Table::fmt(result.trainSpearman, 4) << "\n";
    std::cout << "test Spearman rho:  "
              << Table::fmt(result.testSpearman, 4)
              << "  (paper: 0.5161; >~0.5 is experimentally useful)\n\n";

    // Show the screening outcome: top-5 ranked candidates vs truth.
    const std::vector<double> &predicted = result.testPredictions;

    std::vector<std::size_t> order(predicted.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return predicted[a] > predicted[b];
    });
    Table top({ "rank", "variant", "predicted", "ground truth" });
    for (std::size_t r = 0; r < 5; ++r) {
        const std::size_t idx = order[r];
        top.addRow({ std::to_string(r + 1),
                     test.parentName + "-" + std::to_string(idx),
                     Table::fmt(predicted[idx], 3),
                     Table::fmt(test.affinities[idx], 3) });
    }
    top.print(std::cout);

    // 5. What would a production-scale screen cost? 100k candidates at
    // Fab scale (~450 residues -> 512-token inputs) on ProSE vs A100.
    std::cout << "\nProduction screen estimate (100,000 Fab candidates, "
                 "Protein BERT-base):\n";
    const BertShape shape{ 12, 768, 12, 3072, 128, 512 };
    const ProseConfig accel = ProseConfig::bestPerf();
    const SimReport report = PerfSim(accel).run(shape);
    const double prose_rate = report.inferencesPerSecond();

    const auto a100 = makeA100();
    const double a100_rate =
        shape.batch /
        a100->costTrace(synthesizeBertTrace(shape)).acceleratedSeconds;

    Table cost({ "platform", "inf/s", "time for 100k", "energy (kJ)" });
    const PowerModel power;
    const double prose_watts = power.systemPowerWatts(
        accel.groups, accel.partialInputBuffer, report.cpuDuty);
    cost.addRow({ "ProSE BestPerf", Table::fmt(prose_rate, 0),
                  Table::fmt(100000.0 / prose_rate, 1) + " s",
                  Table::fmt(100000.0 / prose_rate * prose_watts / 1e3,
                             1) });
    cost.addRow({ "A100", Table::fmt(a100_rate, 0),
                  Table::fmt(100000.0 / a100_rate, 1) + " s",
                  Table::fmt(100000.0 / a100_rate * a100->watts() / 1e3,
                             1) });
    cost.print(std::cout);
    return 0;
}
