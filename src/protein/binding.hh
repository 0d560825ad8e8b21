/**
 * @file
 * The Section 2.2 binding-affinity experiment, rebuilt end-to-end:
 *
 *   paper: Herceptin/BH1 Fab variants + wet-lab affinities (AB-Bind)
 *          -> TAPE Protein BERT features -> regularized linear
 *          regression -> Spearman rank correlation ~= 0.52
 *
 *   here:  synthetic Fab-like parents + a *hidden* biophysical
 *          ground-truth affinity model (paratope hydropathy / charge /
 *          volume / aromaticity, plus noise) -> our Protein BERT
 *          features -> ridge regression -> Spearman rank correlation.
 *
 * The hidden model plays the role of the wet lab: the regression never
 * sees it, only (sequence, affinity) pairs. Both antibody families bind
 * the same "HER2" epitope, so they share paratope positions/weights;
 * the test family (BH1) differs from the training family (Herceptin)
 * by fixed framework mutations, exactly the transfer the paper tests.
 */

#ifndef PROSE_PROTEIN_BINDING_HH
#define PROSE_PROTEIN_BINDING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "model/bert_model.hh"

namespace prose {

/** Paratope positions contacting HER2. */
constexpr std::size_t kParatopeSites = 14;

/** Shape of the synthetic antibody-binding problem. */
struct BindingSpec
{
    std::size_t fabLength = 224;        ///< Fab fragment length modelled
    std::uint64_t seed = 0x5eed;
};

/**
 * The hidden wet-lab stand-in: a fixed linear biophysical model over the
 * paratope residues.
 */
class BindingGroundTruth
{
  public:
    BindingGroundTruth(const BindingSpec &spec, Rng &rng);

    /** Noise-free affinity of a sequence. */
    double affinity(const std::string &sequence) const;

    /** Positions that contact the target. */
    const std::vector<std::size_t> &paratope() const { return sites_; }

  private:
    std::vector<std::size_t> sites_;
    double wHydropathy_;
    double wCharge_;
    double wVolume_;
    double wAromatic_;
};

/** One antibody family: a parent and measured variants. */
struct BindingDataset
{
    std::string parentName;
    std::string parent;
    std::vector<std::string> variants;
    std::vector<double> affinities; ///< ground truth + noise
};

/** Generator for the two antibody families of the experiment. */
class BindingBenchmark
{
  public:
    explicit BindingBenchmark(const BindingSpec &spec = BindingSpec{});

    /** Herceptin-like training family. */
    BindingDataset makeTrainSet(std::size_t variants = 39);

    /** BH1-like independent test family. */
    BindingDataset makeTestSet(std::size_t variants = 35);

    const BindingSpec &spec() const { return spec_; }
    const BindingGroundTruth &groundTruth() const { return truth_; }

  private:
    /** Mutate `count` paratope positions of `parent`. */
    std::string mutate(const std::string &parent, std::size_t count);

    BindingDataset makeFamily(const std::string &name,
                              const std::string &parent,
                              std::size_t variants);

    BindingSpec spec_;
    Rng rng_;
    BindingGroundTruth truth_;
    std::string herceptin_;
    std::string bh1_;
};

/** Outcome of the full feature-extraction + regression experiment. */
struct BindingExperimentResult
{
    double trainSpearman = 0.0;
    double testSpearman = 0.0;
    std::size_t trainCount = 0;
    std::size_t testCount = 0;
    /** Predicted affinity of each test variant, in family order. */
    std::vector<double> testPredictions;
};

/**
 * Run the paper's workflow: extract Protein BERT features for every
 * variant, fit ridge regression on the training family, and report
 * Spearman rank correlations on both families.
 *
 * @param model feature extractor (frozen weights)
 * @param train Herceptin-like family
 * @param test BH1-like family
 * @param mode numerics mode of the feature-extraction forward passes
 */
BindingExperimentResult runBindingExperiment(
    const BertModel &model, const BindingDataset &train,
    const BindingDataset &test, NumericsMode mode = NumericsMode::Fp32);

} // namespace prose

#endif // PROSE_PROTEIN_BINDING_HH
