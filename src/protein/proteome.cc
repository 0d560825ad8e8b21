#include "proteome.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/stats.hh"

namespace prose {

namespace {

/** Standard deviation of ln(length). */
constexpr double kLogSigma = 0.55;

static_assert(kMinProteinLength > 0, "proteins need a residue");

} // namespace

std::size_t
sampleProteinLength(Rng &rng, const ProteomeSpec &spec)
{
    PROSE_ASSERT(kMinProteinLength <= spec.maxLength,
                 "bad proteome length bounds");
    // Rejection-sample the log-normal into [min, max].
    for (int attempt = 0; attempt < 64; ++attempt) {
        const double draw = std::exp(rng.gaussian(spec.logMu, kLogSigma));
        const auto length = static_cast<std::size_t>(draw);
        if (length >= kMinProteinLength && length <= spec.maxLength)
            return length;
    }
    // Pathological spec: clamp instead of spinning.
    return std::clamp<std::size_t>(
        static_cast<std::size_t>(std::exp(spec.logMu)), kMinProteinLength,
        spec.maxLength);
}

std::vector<FastaRecord>
synthesizeProteome(Rng &rng, std::size_t count, const ProteomeSpec &spec)
{
    std::vector<FastaRecord> records;
    records.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        FastaRecord record;
        record.id = "synth" + std::to_string(i);
        record.comment = "synthetic protein";
        record.sequence =
            randomProtein(rng, sampleProteinLength(rng, spec));
        records.push_back(std::move(record));
    }
    return records;
}

ProteomeStats
summarizeProteome(const std::vector<FastaRecord> &records)
{
    PROSE_ASSERT(!records.empty(), "summary of an empty proteome");
    ProteomeStats stats;
    stats.count = records.size();
    std::vector<double> lengths;
    lengths.reserve(records.size());
    for (const auto &record : records) {
        lengths.push_back(static_cast<double>(record.sequence.size()));
        stats.totalResidues += record.sequence.size();
    }
    stats.minLength = static_cast<std::size_t>(minOf(lengths));
    stats.maxLength = static_cast<std::size_t>(maxOf(lengths));
    stats.meanLength = mean(lengths);
    stats.medianLength = percentile(lengths, 50.0);
    return stats;
}

} // namespace prose
