/**
 * @file
 * Deep mutational scan of one protein: score every single-point mutant
 * with a learned fitness head, print the effect landscape (the heatmap
 * drug designers read), and estimate the accelerator cost of scanning a
 * real Fab-sized protein at production scale.
 *
 * Build & run:  ./build/examples/mutational_scan
 */

#include <algorithm>
#include <iostream>

#include "accel/perf_sim.hh"
#include "common/table.hh"
#include "model/tokenizer.hh"
#include "protein/amino_acid.hh"
#include "protein/binding.hh"
#include "model/mlm_head.hh"
#include "protein/mutation_scan.hh"
#include "bench_util.hh"

using namespace prose;

int
main(int argc, char **argv)
{
    bench::rejectArgs(argc, argv);
    std::cout << "Deep mutational scan\n====================\n\n";

    // Train a fitness head on the binding benchmark's training family.
    BindingSpec spec;
    spec.fabLength = 48; // keep the real-math scan quick
    BindingBenchmark benchmark(spec);
    const BindingDataset train = benchmark.makeTrainSet(48);

    BertConfig config = BertConfig::tiny();
    config.maxSeqLen = 128;
    const BertModel model(config, 3);
    const AminoTokenizer tokenizer;
    std::vector<std::vector<std::uint32_t>> tokens;
    for (const auto &variant : train.variants)
        tokens.push_back(
            tokenizer.encode(variant, train.parent.size() + 2));
    const RidgeModel head =
        ridgeFit(model.extractFeatures(tokens), train.affinities, 10.0);

    // Scan the wild type.
    const MutationScan scan =
        scanMutations(model, head, train.parent);
    std::cout << "wild type (" << scan.wildType.size()
              << " residues): " << scan.wildType << "\n";
    std::cout << "scored " << scan.effects.size()
              << " single-point mutants\n\n";

    const MutationEffect &best = scan.best();
    const MutationEffect &worst = scan.worst();
    std::cout << "best substitution:  " << best.from << best.position + 1
              << best.to << "  (+" << Table::fmt(best.score, 3) << ")\n";
    std::cout << "worst substitution: " << worst.from
              << worst.position + 1 << worst.to << "  ("
              << Table::fmt(worst.score, 3) << ")\n\n";

    // Positional sensitivity profile: which sites matter. The paratope
    // positions of the hidden ground truth should rank high.
    const auto sensitivity = scan.positionSensitivity();
    std::vector<std::size_t> order(sensitivity.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return sensitivity[a] > sensitivity[b];
              });
    Table hot({ "rank", "position", "residue", "mean |effect|",
                "true paratope?" });
    const auto &paratope = benchmark.groundTruth().paratope();
    for (std::size_t r = 0; r < 8 && r < order.size(); ++r) {
        const std::size_t pos = order[r];
        const bool in_paratope =
            std::find(paratope.begin(), paratope.end(), pos) !=
            paratope.end();
        hot.addRow({ std::to_string(r + 1), std::to_string(pos + 1),
                     std::string(1, scan.wildType[pos]),
                     Table::fmt(sensitivity[pos], 3),
                     in_paratope ? "yes" : "no" });
    }
    hot.print(std::cout);

    // Zero-shot alternative (Meier et al., the paper's zero-shot
    // citation): no head training at all — score substitutions straight
    // from the masked-LM distribution at each position.
    const MlmHead mlm(model);
    std::cout << "\nzero-shot (masked-LM) scores at the hottest "
                 "position:\n";
    const std::size_t hot_pos = order[0];
    Table zs({ "substitution", "log p(to) - log p(wt)" });
    for (char to : { 'A', 'W', 'K', 'I' }) {
        if (to == scan.wildType[hot_pos])
            continue;
        zs.addRow({ std::string(1, scan.wildType[hot_pos]) +
                        std::to_string(hot_pos + 1) + to,
                    Table::fmt(
                        mlm.zeroShotScore(scan.wildType, hot_pos, to),
                        3) });
    }
    zs.print(std::cout);

    // Production cost: a 450-residue Fab has 8550 mutants; at 512
    // tokens each, what does the full scan cost on ProSE?
    const std::uint64_t mutants = 19ull * 450;
    const BertShape shape{ 12, 768, 12, 3072, 128, 512 };
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport report = sim.run(shape);
    const double seconds =
        static_cast<double>(mutants) / report.inferencesPerSecond();
    std::cout << "\nproduction estimate: a full scan of a 450-residue "
                 "Fab (" << mutants << " mutants,\nProtein BERT-base at "
                 "512 tokens) takes ~"
              << Table::fmt(seconds, 1) << " s on one ProSE BestPerf "
              << "instance\n(" << Table::fmt(
                     report.inferencesPerSecond(), 0)
              << " inferences/s).\n";
    return 0;
}
