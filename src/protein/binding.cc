#include "binding.hh"

#include <algorithm>

#include "amino_acid.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "fasta.hh"
#include "model/tokenizer.hh"
#include "numerics/linalg.hh"

namespace prose {

namespace {

constexpr std::size_t kMutationsPerVariant = 5; ///< paratope edits per variant
constexpr std::size_t kFrameworkMutations = 10; ///< Herceptin -> BH1 edits
constexpr double kNoiseStddev = 0.3;            ///< wet-lab measurement noise

static_assert(kParatopeSites > 0, "the epitope needs a contact");

} // namespace

BindingGroundTruth::BindingGroundTruth(const BindingSpec &spec, Rng &rng)
{
    PROSE_ASSERT(kParatopeSites <= spec.fabLength,
                 "paratope larger than the Fab");
    // Draw distinct paratope positions.
    std::vector<std::size_t> all(spec.fabLength);
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    rng.shuffle(all);
    sites_.assign(all.begin(),
                  all.begin() + static_cast<long>(kParatopeSites));
    std::sort(sites_.begin(), sites_.end());

    // Fixed (hidden) biophysical preference of the epitope. Signs and
    // magnitudes are arbitrary but held constant across both families.
    wHydropathy_ = rng.uniform(0.5, 1.5);
    wCharge_ = rng.uniform(-2.0, -0.5);
    wVolume_ = rng.uniform(0.005, 0.02);
    wAromatic_ = rng.uniform(0.5, 2.0);
}

double
BindingGroundTruth::affinity(const std::string &sequence) const
{
    double score = 0.0;
    for (std::size_t pos : sites_) {
        PROSE_ASSERT(pos < sequence.size(),
                     "sequence shorter than a paratope position");
        const AminoAcid &aa = aminoAcid(sequence[pos]);
        score += wHydropathy_ * aa.hydropathy + wCharge_ * aa.charge +
                 wVolume_ * aa.volume + wAromatic_ * aa.aromatic;
    }
    return score;
}

BindingBenchmark::BindingBenchmark(const BindingSpec &spec)
    : spec_(spec), rng_(spec.seed), truth_(spec, rng_)
{
    herceptin_ = randomProtein(rng_, spec_.fabLength);
    // BH1 binds the same epitope but differs by framework (non-paratope)
    // mutations from Herceptin.
    bh1_ = herceptin_;
    const auto &residues = canonicalResidues();
    std::size_t applied = 0;
    while (applied < kFrameworkMutations) {
        const std::size_t pos = rng_.below(spec_.fabLength);
        if (std::find(truth_.paratope().begin(), truth_.paratope().end(),
                      pos) != truth_.paratope().end()) {
            continue;
        }
        const char replacement =
            residues[rng_.below(residues.size())];
        if (bh1_[pos] == replacement)
            continue;
        bh1_[pos] = replacement;
        ++applied;
    }
}

std::string
BindingBenchmark::mutate(const std::string &parent, std::size_t count)
{
    std::string variant = parent;
    const auto &residues = canonicalResidues();
    const auto &sites = truth_.paratope();
    std::size_t applied = 0;
    while (applied < count) {
        const std::size_t pos = sites[rng_.below(sites.size())];
        const char replacement = residues[rng_.below(residues.size())];
        if (variant[pos] == replacement)
            continue;
        variant[pos] = replacement;
        ++applied;
    }
    return variant;
}

BindingDataset
BindingBenchmark::makeFamily(const std::string &name,
                             const std::string &parent,
                             std::size_t variants)
{
    BindingDataset dataset;
    dataset.parentName = name;
    dataset.parent = parent;
    for (std::size_t i = 0; i < variants; ++i) {
        const std::string variant = mutate(parent, kMutationsPerVariant);
        dataset.variants.push_back(variant);
        dataset.affinities.push_back(truth_.affinity(variant) +
                                     rng_.gaussian(0.0, kNoiseStddev));
    }
    return dataset;
}

BindingDataset
BindingBenchmark::makeTrainSet(std::size_t variants)
{
    return makeFamily("Herceptin", herceptin_, variants);
}

BindingDataset
BindingBenchmark::makeTestSet(std::size_t variants)
{
    return makeFamily("BH1", bh1_, variants);
}

namespace {

/** Ridge penalty of the Section 2.2 regression head. */
constexpr double kRidgeLambda = 10.0;

/** Tokenize and feature-extract one family (batched per family). */
Matrix
extractFamilyFeatures(const BertModel &model, const BindingDataset &family,
                      NumericsMode mode)
{
    const AminoTokenizer tokenizer;
    const std::size_t target_len = family.parent.size() + 2;
    std::vector<std::vector<std::uint32_t>> tokens;
    tokens.reserve(family.variants.size());
    for (const auto &variant : family.variants)
        tokens.push_back(tokenizer.encode(variant, target_len));
    return model.extractFeatures(tokens, mode);
}

} // namespace

BindingExperimentResult
runBindingExperiment(const BertModel &model, const BindingDataset &train,
                     const BindingDataset &test, NumericsMode mode)
{
    PROSE_ASSERT(train.variants.size() >= 4 && test.variants.size() >= 4,
                 "binding experiment needs a few variants per family");

    const Matrix x_train = extractFamilyFeatures(model, train, mode);
    const Matrix x_test = extractFamilyFeatures(model, test, mode);

    const RidgeModel ridge = ridgeFit(x_train, train.affinities, kRidgeLambda);

    BindingExperimentResult result;
    result.trainCount = train.variants.size();
    result.testCount = test.variants.size();
    result.trainSpearman =
        spearman(ridge.predictRows(x_train), train.affinities);
    result.testPredictions = ridge.predictRows(x_test);
    result.testSpearman = spearman(result.testPredictions, test.affinities);
    return result;
}

} // namespace prose
