/** @file Tests for the Section 2.2 binding-affinity experiment. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "protein/binding.hh"

namespace prose {
namespace {

BindingSpec
smallSpec()
{
    BindingSpec spec;
    spec.fabLength = 96; // keep forward passes fast in unit tests
    spec.seed = 0x5eed;
    return spec;
}

TEST(BindingGroundTruth, ParatopeSitesDistinctAndInRange)
{
    Rng rng(1);
    const BindingSpec spec = smallSpec();
    const BindingGroundTruth truth(spec, rng);
    std::set<std::size_t> unique(truth.paratope().begin(),
                                 truth.paratope().end());
    EXPECT_EQ(unique.size(), kParatopeSites);
    for (std::size_t pos : truth.paratope())
        EXPECT_LT(pos, spec.fabLength);
}

TEST(BindingGroundTruth, AffinityIgnoresNonParatopeMutations)
{
    Rng rng(2);
    const BindingSpec spec = smallSpec();
    const BindingGroundTruth truth(spec, rng);
    Rng seq_rng(3);
    std::string sequence(spec.fabLength, 'A');
    const double base = truth.affinity(sequence);
    // Mutate a position outside the paratope.
    for (std::size_t pos = 0; pos < spec.fabLength; ++pos) {
        const auto &sites = truth.paratope();
        if (std::find(sites.begin(), sites.end(), pos) != sites.end())
            continue;
        sequence[pos] = 'W';
        EXPECT_DOUBLE_EQ(truth.affinity(sequence), base);
        break;
    }
}

TEST(BindingGroundTruth, AffinityChangesWithParatopeMutation)
{
    Rng rng(4);
    const BindingSpec spec = smallSpec();
    const BindingGroundTruth truth(spec, rng);
    std::string sequence(spec.fabLength, 'A');
    const double base = truth.affinity(sequence);
    std::string mutated = sequence;
    mutated[truth.paratope().front()] = 'R'; // charged residue
    EXPECT_NE(truth.affinity(mutated), base);
}

TEST(BindingBenchmark, FamiliesShareLengthDifferInFramework)
{
    BindingBenchmark bench(smallSpec());
    const BindingDataset train = bench.makeTrainSet(10);
    const BindingDataset test = bench.makeTestSet(10);
    EXPECT_EQ(train.parent.size(), test.parent.size());
    EXPECT_NE(train.parent, test.parent);
    // The two parents agree on every paratope position.
    for (std::size_t pos : bench.groundTruth().paratope())
        EXPECT_EQ(train.parent[pos], test.parent[pos]);
}

TEST(BindingBenchmark, VariantsDifferFromParentOnlyAtParatope)
{
    BindingBenchmark bench(smallSpec());
    const BindingDataset train = bench.makeTrainSet(5);
    const auto &sites = bench.groundTruth().paratope();
    for (const auto &variant : train.variants) {
        ASSERT_EQ(variant.size(), train.parent.size());
        for (std::size_t pos = 0; pos < variant.size(); ++pos) {
            if (variant[pos] != train.parent[pos]) {
                EXPECT_NE(std::find(sites.begin(), sites.end(), pos),
                          sites.end())
                    << "non-paratope mutation at " << pos;
            }
        }
    }
}

TEST(BindingBenchmark, DatasetSizesMatchPaper)
{
    BindingBenchmark bench(smallSpec());
    EXPECT_EQ(bench.makeTrainSet(39).variants.size(), 39u);
    EXPECT_EQ(bench.makeTestSet(35).variants.size(), 35u);
}

TEST(BindingBenchmark, AffinitiesVary)
{
    BindingBenchmark bench(smallSpec());
    const BindingDataset train = bench.makeTrainSet(20);
    const double lo =
        *std::min_element(train.affinities.begin(),
                          train.affinities.end());
    const double hi =
        *std::max_element(train.affinities.begin(),
                          train.affinities.end());
    EXPECT_GT(hi - lo, 1.0);
}

TEST(BindingExperiment, RankCorrelationNearPaperValue)
{
    // The paper reports 0.5161 test rank correlation ("near or above
    // 0.5 suffices for experimental validity"). With our synthetic
    // ground truth and random-feature BERT the workflow must land in
    // the same usable band.
    BindingBenchmark bench(smallSpec());
    const BindingDataset train = bench.makeTrainSet(39);
    const BindingDataset test = bench.makeTestSet(35);
    const BertModel model(BertConfig::tiny(), 42);
    const BindingExperimentResult result =
        runBindingExperiment(model, train, test);

    EXPECT_GT(result.trainSpearman, 0.7); // in-sample fit is strong
    EXPECT_GT(result.testSpearman, 0.35); // transfer is the hard part
    EXPECT_LE(result.testSpearman, 1.0);
    EXPECT_EQ(result.trainCount, 39u);
    EXPECT_EQ(result.testCount, 35u);
}

TEST(BindingExperiment, DeterministicGivenSeeds)
{
    BindingBenchmark bench_a(smallSpec());
    BindingBenchmark bench_b(smallSpec());
    const BertModel model(BertConfig::tiny(), 7);
    const auto result_a = runBindingExperiment(
        model, bench_a.makeTrainSet(12), bench_a.makeTestSet(12));
    const auto result_b = runBindingExperiment(
        model, bench_b.makeTrainSet(12), bench_b.makeTestSet(12));
    EXPECT_DOUBLE_EQ(result_a.testSpearman, result_b.testSpearman);
}

} // namespace
} // namespace prose
