/**
 * @file
 * Section 2.2: the software protein-binding evaluation. Trains a ridge
 * regression on Protein BERT features of 39 Herceptin-like Fab variants
 * and tests on 35 independent BH1-like variants, reporting Spearman
 * rank correlation (paper: 0.5161 with TAPE weights and AB-Bind data;
 * "near or above 0.5 suffices for experimental validity").
 *
 * Without the proprietary TAPE checkpoint and wet-lab affinities, the
 * benchmark substitutes a hidden biophysical ground-truth model and a
 * frozen random-weight encoder (see DESIGN.md), exercising the exact
 * workflow: features -> regularized regression -> rank correlation.
 */

#include "bench_util.hh"
#include "common/stats.hh"
#include "model/bert_model.hh"
#include "protein/binding.hh"

using namespace prose;
using namespace prose::bench;

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Section 2.2: binding-affinity rank-correlation experiment");

    BindingSpec spec;
    spec.fabLength = 224; // Fab-scale fragment (paper: ~450 residues)
    Table table({ "seed", "train-rho", "test-rho" });
    std::vector<double> test_rhos;
    for (std::uint64_t seed : { 1u, 2u, 3u, 4u, 5u }) {
        spec.seed = 0x5eed + seed;
        BindingBenchmark benchmark(spec);
        const BindingDataset train = benchmark.makeTrainSet(39);
        const BindingDataset test = benchmark.makeTestSet(35);

        BertConfig config = BertConfig::tiny();
        config.maxSeqLen = 512;
        const BertModel model(config, seed);
        const BindingExperimentResult result =
            runBindingExperiment(model, train, test);
        table.addRow({ std::to_string(seed),
                       Table::fmt(result.trainSpearman, 4),
                       Table::fmt(result.testSpearman, 4) });
        test_rhos.push_back(result.testSpearman);
    }
    table.addRow({ "mean", "-", Table::fmt(mean(test_rhos), 4) });
    table.print(std::cout);

    std::cout << "\nPaper reference: test rank correlation 0.5161 "
                 "(39 train / 35 test Fab variants);\nvalues near or "
                 "above 0.5 are sufficient for experimental validity.\n";
    return 0;
}
