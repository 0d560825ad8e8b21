/**
 * @file
 * Machine-learning-guided directed evolution (the workflow of Yang,
 * Wu & Arnold 2019 that the paper cites as a target application):
 *
 *   repeat for G generations:
 *     1. mutate the current champion into a candidate pool
 *     2. score every candidate with the learned affinity model
 *        (Protein BERT features -> ridge regression)
 *     3. carry the best-predicted candidate forward
 *
 * The hidden ground-truth binding model plays the wet lab: it is only
 * consulted to (a) label the initial training set and (b) audit, after
 * the fact, whether the model-guided trajectory actually improved true
 * affinity.
 *
 * Build & run:  ./build/examples/directed_evolution
 */

#include <algorithm>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "model/bert_model.hh"
#include "model/tokenizer.hh"
#include "numerics/linalg.hh"
#include "protein/binding.hh"

using namespace prose;

namespace {

/** Mutate `count` random positions of `parent` anywhere. */
std::string
mutateAnywhere(Rng &rng, const std::string &parent, std::size_t count)
{
    static const std::string residues = "ACDEFGHIKLMNPQRSTVWY";
    std::string variant = parent;
    std::size_t applied = 0;
    while (applied < count) {
        const std::size_t pos = rng.below(variant.size());
        const char replacement = residues[rng.below(residues.size())];
        if (variant[pos] == replacement)
            continue;
        variant[pos] = replacement;
        ++applied;
    }
    return variant;
}

Matrix
extract(const BertModel &model, const std::vector<std::string> &pool,
        std::size_t target_len)
{
    const AminoTokenizer tokenizer;
    std::vector<std::vector<std::uint32_t>> tokens;
    tokens.reserve(pool.size());
    for (const auto &sequence : pool)
        tokens.push_back(tokenizer.encode(sequence, target_len));
    return model.extractFeatures(tokens);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::rejectArgs(argc, argv);
    std::cout << "ML-guided directed evolution\n"
              << "============================\n\n";

    BindingSpec spec;
    spec.fabLength = 120;
    spec.seed = 0xd1f7;
    BindingBenchmark benchmark(spec);
    const BindingGroundTruth &lab = benchmark.groundTruth();

    // Train the affinity surrogate on the initial measured library.
    const BindingDataset library = benchmark.makeTrainSet(48);
    BertConfig config = BertConfig::tiny();
    config.maxSeqLen = 256;
    const BertModel model(config, 11);
    const std::size_t target_len = spec.fabLength + 2;

    const RidgeModel surrogate =
        ridgeFit(extract(model, library.variants, target_len),
                 library.affinities, 10.0);

    // Evolve.
    Rng rng(99);
    std::string champion = library.parent;
    double champion_true = lab.affinity(champion);
    const std::size_t generations = 6;
    const std::size_t pool_size = 24;

    Table table({ "generation", "pool best (predicted)",
                  "champion true affinity", "improved" });
    table.addRow({ "0 (wild type)", "-", Table::fmt(champion_true, 2),
                   "-" });
    for (std::size_t gen = 1; gen <= generations; ++gen) {
        std::vector<std::string> pool;
        for (std::size_t i = 0; i < pool_size; ++i)
            pool.push_back(mutateAnywhere(rng, champion, 2));

        const std::vector<double> predicted =
            surrogate.predictRows(extract(model, pool, target_len));
        const std::size_t best = static_cast<std::size_t>(
            std::max_element(predicted.begin(), predicted.end()) -
            predicted.begin());

        // Greedy hill climb on the surrogate; the wet lab (ground
        // truth) only audits the step.
        const double candidate_true = lab.affinity(pool[best]);
        const bool improved = candidate_true > champion_true;
        if (improved) {
            champion = pool[best];
            champion_true = candidate_true;
        }
        table.addRow({ std::to_string(gen),
                       Table::fmt(predicted[best], 2),
                       Table::fmt(champion_true, 2),
                       improved ? "yes" : "no (kept champion)" });
    }
    table.print(std::cout);

    const double wild_type_true = lab.affinity(library.parent);
    std::cout << "\ntrue affinity: wild type "
              << Table::fmt(wild_type_true, 2) << " -> evolved "
              << Table::fmt(champion_true, 2) << " ("
              << Table::fmt(champion_true - wild_type_true, 2)
              << " improvement, audited against the hidden ground "
                 "truth)\n";
    return 0;
}
