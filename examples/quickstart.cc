/**
 * @file
 * Quickstart: the smallest end-to-end ProSE workflow.
 *
 *   1. Tokenize a protein sequence.
 *   2. Run it through a Protein BERT encoder (real math, accelerator
 *      bfloat16+LUT numerics), capturing the tensor-op trace.
 *   3. Group the trace into ProSE dataflows.
 *   4. Simulate the BestPerf accelerator executing those dataflows and
 *      report runtime, throughput, utilization, and power.
 *
 * Build & run:  ./build/examples/quickstart [protein-sequence]
 */

#include <iostream>
#include <string>

#include "accel/perf_sim.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "model/bert_model.hh"
#include "model/tokenizer.hh"
#include "power/power_model.hh"

using namespace prose;

int
main(int argc, char **argv)
{
    // A hemoglobin-beta fragment by default; pass your own sequence.
    std::string protein =
        "MVHLTPEEKSAVTALWGKVNVDEVGGEALGRLLVVYPWTQRFFESFGDLSTPDAVMGNPK"
        "VKAHGKKVLGAFSDGLAHLDNLKGTFATLSELHCDKLHVDPENFRLLGNVLVCVLAHHFG";
    if (argc > 2)
        fatal("unexpected argument \"", argv[2],
              "\"; usage: quickstart [protein-sequence]");
    if (argc > 1)
        protein = argv[1];
    if (protein.empty())
        fatal("empty protein sequence; usage: quickstart [protein-sequence]");
    const AminoTokenizer tokenizer;
    for (char residue : protein) {
        if (tokenizer.residueId(residue) == kUnkToken)
            fatal("\"", protein, "\" is not a protein sequence: '",
                  residue, "' is no residue code; usage: quickstart "
                  "[protein-sequence]");
    }

    std::cout << "ProSE quickstart\n================\n\n";
    std::cout << "protein (" << protein.size() << " residues): "
              << protein.substr(0, 60)
              << (protein.size() > 60 ? "..." : "") << "\n\n";

    // 1-2. Tokenize and run the encoder with full accelerator numerics.
    const auto tokens = tokenizer.encode(protein);
    BertConfig config = BertConfig::tiny(); // laptop-sized real math
    config.maxSeqLen = 2048;
    const BertModel model(config, /*seed=*/42);

    OpTrace trace;
    const BertModel::Output out =
        model.forward({ tokens }, NumericsMode::Bf16Lut, &trace);
    std::cout << "encoder: " << config.layers << " layers, hidden "
              << config.hidden << " -> hidden states " << out.hidden.rows()
              << "x" << out.hidden.cols() << ", " << trace.size()
              << " tensor ops traced\n";

    // 3. Dataflow construction (Figure 6/7).
    const auto tasks = DataflowBuilder{}.build(trace);
    std::size_t df1 = 0, df2 = 0, df3 = 0, host = 0;
    for (const auto &task : tasks) {
        switch (task.kind) {
          case DataflowKind::Dataflow1:
            ++df1;
            break;
          case DataflowKind::Dataflow2:
            ++df2;
            break;
          case DataflowKind::Dataflow3:
            ++df3;
            break;
          case DataflowKind::Host:
            ++host;
            break;
        }
    }
    std::cout << "dataflows: " << df1 << "x DF1 (M-Type), " << df2
              << "x DF2 (G-Type), " << df3 << "x DF3 (E-Type), " << host
              << " host ops\n";
    std::cout << "accelerated FLOP fraction: "
              << Table::fmt(
                     100.0 * DataflowBuilder::acceleratedFraction(tasks),
                     1)
              << "%\n\n";

    // 4. Simulate the paper-scale accelerator on the paper-scale model.
    // The perf sim runs from a synthetic trace of the *full* BERT-base
    // encoder at this protein's length — identical op structure, real
    // Protein BERT dimensions.
    const ProseConfig accel = ProseConfig::bestPerf();
    const BertShape shape = BertConfig::proteinBertBase().shape(
        /*batch=*/32, tokens.size());
    const SimReport report = PerfSim(accel).run(shape);

    const PowerModel power;
    const double watts = power.systemPowerWatts(
        accel.groups, accel.partialInputBuffer, report.cpuDuty);

    Table table({ "metric", "value" });
    table.addRow({ "accelerator", accel.describe() });
    table.addRow({ "workload", "Protein BERT-base, batch 32, len " +
                                   std::to_string(tokens.size()) });
    table.addRow({ "makespan",
                   Table::fmt(report.makespan * 1e3, 2) + " ms" });
    table.addRow({ "throughput",
                   Table::fmt(report.inferencesPerSecond(), 1) +
                       " inferences/s" });
    table.addRow({ "M/G/E utilization",
                   Table::fmt(report.utilization(ArrayType::M), 2) + " / " +
                       Table::fmt(report.utilization(ArrayType::G), 2) +
                       " / " +
                       Table::fmt(report.utilization(ArrayType::E), 2) });
    table.addRow({ "link traffic",
                   Table::fmt(report.bytesIn / 1e9, 2) + " GB in, " +
                       Table::fmt(report.bytesOut / 1e9, 2) + " GB out" });
    table.addRow({ "system power", Table::fmt(watts, 1) + " W" });
    table.addRow({ "efficiency",
                   Table::fmt(report.inferencesPerSecond() / watts, 2) +
                       " inferences/s/W" });
    table.print(std::cout);
    return 0;
}
