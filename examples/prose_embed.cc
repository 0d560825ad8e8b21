/**
 * @file
 * prose_embed — FASTA in, feature vectors out. The front half of every
 * downstream workflow as a standalone tool: reads protein sequences
 * from a FASTA file (or synthesizes a demo proteome), batches them by
 * length bucket, extracts Protein BERT features, and writes one CSV row
 * per protein.
 *
 * Usage:
 *   prose_embed [input.fasta] [output.csv]
 *   prose_embed --demo [output.csv]     # synthesize 32 demo proteins
 */

#include <fstream>
#include <iostream>
#include <string>

#include "accel/batcher.hh"
#include "common/logging.hh"
#include "model/bert_model.hh"
#include "model/tokenizer.hh"
#include "protein/proteome.hh"

using namespace prose;

int
main(int argc, char **argv)
{
    std::vector<FastaRecord> records;
    std::string output_path = "features.csv";

    if (argc > 3)
        fatal("unexpected argument \"", argv[3],
              "\"; usage: prose_embed [input.fasta | --demo] "
              "[output.csv]");
    if (argc >= 2 && std::string(argv[1]) != "--demo") {
        records = readFastaFile(argv[1]);
        if (argc >= 3)
            output_path = argv[2];
    } else {
        Rng rng(7);
        ProteomeSpec spec;
        spec.maxLength = 120; // keep the demo's real math quick
        spec.logMu = 4.2;
        records = synthesizeProteome(rng, 32, spec);
        if (argc >= 3)
            output_path = argv[2];
        std::cout << "no FASTA given; synthesized " << records.size()
                  << " demo proteins\n";
    }
    if (records.empty())
        fatal("no sequences to embed");

    // Bucket by length so each batch is pad-efficient.
    std::vector<std::size_t> lengths;
    for (const auto &record : records)
        lengths.push_back(record.sequence.size());
    BatcherSpec batcher;
    batcher.buckets = { 64, 128, 256, 512, 1024, 2048 };
    const BatchPlan plan = planBatches(lengths, batcher);
    std::cout << "embedding " << records.size() << " proteins in "
              << plan.batches.size() << " length-bucketed batches ("
              << static_cast<int>(100 * plan.paddingOverhead())
              << "% padding)\n";

    // Feature extraction (tiny config: the demo runs real math).
    BertConfig config = BertConfig::tiny();
    config.maxSeqLen = 2048;
    const BertModel model(config, 123);
    const AminoTokenizer tokenizer;

    std::ofstream out(output_path);
    if (!out)
        fatal("cannot open ", output_path, " for writing");
    out << "id,length";
    for (std::uint64_t j = 0; j < config.hidden; ++j)
        out << ",f" << j;
    out << "\n";

    // Group records per bucket the same way the batcher did.
    for (const auto &record : records) {
        const std::uint64_t tokens = record.sequence.size() + 2;
        std::uint64_t bucket = batcher.buckets.back();
        for (std::uint64_t candidate : batcher.buckets) {
            if (tokens <= candidate) {
                bucket = candidate;
                break;
            }
        }
        const Matrix features = model.extractFeatures(
            { tokenizer.encode(record.sequence, bucket) });
        out << record.id << ',' << record.sequence.size();
        for (std::uint64_t j = 0; j < config.hidden; ++j)
            out << ',' << features(0, j);
        out << "\n";
    }
    std::cout << "wrote " << output_path << "\n";
    return 0;
}
