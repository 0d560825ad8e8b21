/**
 * @file
 * Extension exhibit (Section 6): "by swapping out the transformer model
 * weights being accelerated (e.g., adding decoder layers for language
 * translation) ... ProSE is easily applicable to a multitude of other
 * protein and NLP-related tasks."
 *
 * Simulates an encoder-decoder translation stack (6+6 layers,
 * BERT-base width) on ProSE and the commodity baselines across target
 * lengths: the encoder runs as the familiar BERT trace, the decoder as
 * the DecoderShape trace (causal self-attention + cross-attention +
 * FFN), all on the unchanged Dataflows 1/2/3.
 */

#include "bench_util.hh"

using namespace prose;
using namespace prose::bench;

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Extension: encoder-decoder translation on ProSE");

    const ProseConfig config = ProseConfig::bestPerf();
    const auto a100 = makeA100();
    const std::uint64_t batch = 64;
    const std::uint64_t source_len = 512;

    Table table({ "target-len", "encoder(ms)", "decoder(ms)",
                  "total(ms)", "A100(ms)", "speedup" });
    for (std::uint64_t target_len : { 32u, 64u, 128u, 256u, 512u }) {
        const BertShape encoder{ 6, 768, 12, 3072, batch, source_len };
        DecoderShape decoder;
        decoder.layers = 6;
        decoder.batch = batch;
        decoder.targetLen = target_len;
        decoder.sourceLen = source_len;

        PerfSim sim(config);
        const double enc = sim.run(encoder).makespan;
        const double dec = sim.runDecoder(decoder).makespan;

        // Baseline cost of the same two traces back to back.
        const double a100_s =
            a100->costTrace(synthesizeBertTrace(encoder))
                .acceleratedSeconds +
            a100->costTrace(synthesizeDecoderTrace(decoder))
                .acceleratedSeconds;

        table.addRow({ std::to_string(target_len),
                       Table::fmt(enc * 1e3, 1),
                       Table::fmt(dec * 1e3, 1),
                       Table::fmt((enc + dec) * 1e3, 1),
                       Table::fmt(a100_s * 1e3, 1),
                       Table::fmt(a100_s / (enc + dec), 2) });
    }
    table.print(std::cout);

    std::cout << "\nThe decoder's Dataflow 3 count doubles per layer "
                 "(self + cross attention), yet\nthe same heterogeneous "
                 "arrays absorb it — ProSE's generality claim "
                 "(Section 6).\n";
    return 0;
}
