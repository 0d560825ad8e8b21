/** @file Tests for the functional dataflow simulator (the Verilog-sim
 *  stand-in): whole dataflows with real data on cycle-stepped arrays. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "fault/fault_injector.hh"
#include "numerics/activations.hh"
#include "numerics/bfloat16.hh"
#include "numerics/lut.hh"
#include "systolic/functional_sim.hh"
#include "systolic/timing_model.hh"

namespace prose {
namespace {

Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols,
             float stddev = 1.0f)
{
    Matrix m(rows, cols);
    m.fillGaussian(rng, 0.0f, stddev);
    return m;
}

/** Small arrays keep the cycle-stepped runs fast. */
FunctionalSimulator
makeSim()
{
    return FunctionalSimulator(ArrayGeometry::mType(8),
                               ArrayGeometry::gType(8),
                               ArrayGeometry::eType(8));
}

TEST(FunctionalSim, Dataflow1MatchesReferenceNumerics)
{
    Rng rng(1);
    const Matrix a = randomMatrix(rng, 19, 23);
    const Matrix b = randomMatrix(rng, 23, 13);
    Matrix bias(1, 13);
    bias.fillGaussian(rng, 0.0f, 1.0f);

    FunctionalSimulator sim = makeSim();
    const Matrix got = sim.dataflow1(a, b, 2.0f, &bias);

    const Matrix mm = matmulBf16(a, b);
    for (std::size_t i = 0; i < got.rows(); ++i) {
        for (std::size_t j = 0; j < got.cols(); ++j) {
            const float scaled = quantizeBf16(
                truncateBf16(mm(i, j)) * quantizeBf16(2.0f));
            const float sum = quantizeBf16(truncateBf16(scaled) +
                                           quantizeBf16(bias(0, j)));
            EXPECT_EQ(got(i, j), truncateBf16(sum)) << i << "," << j;
        }
    }
}

TEST(FunctionalSim, Dataflow1FullMatrixResidual)
{
    Rng rng(2);
    const Matrix a = randomMatrix(rng, 10, 6);
    const Matrix b = randomMatrix(rng, 6, 10);
    const Matrix residual = randomMatrix(rng, 10, 10);

    FunctionalSimulator sim = makeSim();
    const Matrix got = sim.dataflow1(a, b, 1.0f, &residual);
    const Matrix mm = matmulBf16(a, b);
    for (std::size_t i = 0; i < 10; ++i)
        for (std::size_t j = 0; j < 10; ++j) {
            const float scaled = quantizeBf16(
                truncateBf16(mm(i, j)) * quantizeBf16(1.0f));
            const float sum = quantizeBf16(
                truncateBf16(scaled) + quantizeBf16(residual(i, j)));
            EXPECT_EQ(got(i, j), truncateBf16(sum));
        }
}

TEST(FunctionalSim, Dataflow1WithoutAddend)
{
    Rng rng(3);
    const Matrix a = randomMatrix(rng, 9, 5);
    const Matrix b = randomMatrix(rng, 5, 7);
    FunctionalSimulator sim = makeSim();
    const Matrix got = sim.dataflow1(a, b, 1.0f, nullptr);
    const Matrix mm = matmulBf16(a, b);
    for (std::size_t i = 0; i < got.rows(); ++i)
        for (std::size_t j = 0; j < got.cols(); ++j)
            EXPECT_EQ(got(i, j), truncateBf16(mm(i, j)));
}

TEST(FunctionalSim, Dataflow2AppliesGeluLut)
{
    Rng rng(4);
    const Matrix a = randomMatrix(rng, 12, 9);
    const Matrix b = randomMatrix(rng, 9, 11);
    Matrix bias(1, 11);
    bias.fillGaussian(rng, 0.0f, 0.5f);

    FunctionalSimulator sim = makeSim();
    const Matrix got = sim.dataflow2(a, b, 1.0f, &bias);

    const TwoLevelLut &lut = geluLut();
    const Matrix mm = matmulBf16(a, b);
    for (std::size_t i = 0; i < got.rows(); ++i) {
        for (std::size_t j = 0; j < got.cols(); ++j) {
            const float scaled = quantizeBf16(
                truncateBf16(mm(i, j)) * quantizeBf16(1.0f));
            const float sum = quantizeBf16(truncateBf16(scaled) +
                                           quantizeBf16(bias(0, j)));
            const float gelu =
                lut.lookup(truncateToBf16(sum)).toFloat();
            EXPECT_EQ(got(i, j), truncateBf16(gelu));
        }
    }
}

TEST(FunctionalSim, Dataflow3ProducesValidAttention)
{
    // Q, K, V with small magnitudes so Exp stays well-conditioned.
    Rng rng(5);
    const std::size_t len = 12, dk = 8;
    std::vector<Matrix> q, k, v;
    for (int b = 0; b < 3; ++b) {
        q.push_back(randomMatrix(rng, len, dk, 0.5f));
        k.push_back(randomMatrix(rng, len, dk, 0.5f));
        v.push_back(randomMatrix(rng, len, dk, 0.5f));
    }
    const float inv_scale = 1.0f / std::sqrt(static_cast<float>(dk));

    FunctionalSimulator sim = makeSim();
    const std::vector<Matrix> ctx = sim.dataflow3(q, k, v, inv_scale);
    ASSERT_EQ(ctx.size(), 3u);

    // Compare against the fp32 attention reference; hardware numerics
    // introduce bf16-scale error only.
    for (std::size_t b = 0; b < 3; ++b) {
        Matrix scores = matmul(q[b], transpose(k[b]));
        scores = scale(scores, inv_scale);
        const Matrix expected = matmul(rowSoftmax(scores), v[b]);
        EXPECT_EQ(ctx[b].rows(), len);
        EXPECT_EQ(ctx[b].cols(), dk);
        EXPECT_LT(Matrix::maxAbsDiff(ctx[b], expected), 0.06f)
            << "batch " << b;
    }
}

TEST(FunctionalSim, Dataflow3ProbabilitiesImplicitlyNormalized)
{
    // Constant V exposes the softmax normalization: context rows must
    // equal the constant (each row of P sums to ~1).
    Rng rng(6);
    const std::size_t len = 10, dk = 8;
    const Matrix q = randomMatrix(rng, len, dk, 0.5f);
    const Matrix k = randomMatrix(rng, len, dk, 0.5f);
    Matrix v(len, dk, 3.0f);

    FunctionalSimulator sim = makeSim();
    const auto ctx = sim.dataflow3({ q }, { k }, { v }, 0.35f);
    for (std::size_t i = 0; i < len; ++i)
        for (std::size_t j = 0; j < dk; ++j)
            EXPECT_NEAR(ctx[0](i, j), 3.0f, 0.1f);
}

TEST(FunctionalSim, StatisticsAccumulateAcrossArrays)
{
    Rng rng(7);
    FunctionalSimulator sim = makeSim();
    sim.dataflow1(randomMatrix(rng, 8, 8), randomMatrix(rng, 8, 8),
                  1.0f, nullptr);
    const std::uint64_t after_df1 = sim.matmulCycles();
    EXPECT_GT(after_df1, 0u);
    sim.dataflow2(randomMatrix(rng, 8, 8), randomMatrix(rng, 8, 8),
                  1.0f, nullptr);
    EXPECT_GT(sim.matmulCycles(), after_df1);
    EXPECT_GT(sim.simdCycles(), 0u);
    EXPECT_GT(sim.macCount(), 0u);
}

TEST(FunctionalSim, MatchesTimingModelCycleCounts)
{
    // The functional simulator's matmul cycles over a tiled product
    // equal the closed-form model (drain/SIMD handled separately).
    Rng rng(8);
    const std::size_t m = 21, k = 15, n = 17;
    FunctionalSimulator sim(ArrayGeometry::mType(8),
                            ArrayGeometry::gType(8),
                            ArrayGeometry::eType(8));
    sim.dataflow1(randomMatrix(rng, m, k), randomMatrix(rng, k, n),
                  1.0f, nullptr);
    EXPECT_EQ(sim.mArray().matmulCycles(),
              TimingModel::matmulCycles(m, k, n, 8));
}

TEST(FunctionalSim, FullDataflow1CyclesMatchTimingModel)
{
    // The DES prices a Dataflow 1 as matmul cycles + 3 SIMD passes
    // (MUL, ADD, drain); the functional simulator must spend exactly
    // that executing one.
    Rng rng(10);
    const std::size_t m = 21, k = 15, n = 17, s = 8;
    FunctionalSimulator sim(ArrayGeometry::mType(8),
                            ArrayGeometry::gType(8),
                            ArrayGeometry::eType(8));
    Matrix bias(1, n);
    bias.fillGaussian(rng, 0.0f, 1.0f);
    sim.dataflow1(randomMatrix(rng, m, k), randomMatrix(rng, k, n),
                  1.0f, &bias);
    EXPECT_EQ(sim.mArray().matmulCycles(),
              TimingModel::matmulCycles(m, k, n, s));
    EXPECT_EQ(sim.mArray().simdCycles(),
              3 * TimingModel::simdPassCycles(m, n, s));
}

TEST(FunctionalSim, FullDataflow2CyclesMatchTimingModel)
{
    // Dataflow 2 adds the GELU pass: 4 SIMD passes total.
    Rng rng(11);
    const std::size_t m = 13, k = 9, n = 19, s = 8;
    FunctionalSimulator sim(ArrayGeometry::mType(8),
                            ArrayGeometry::gType(8),
                            ArrayGeometry::eType(8));
    Matrix bias(1, n);
    bias.fillGaussian(rng, 0.0f, 1.0f);
    sim.dataflow2(randomMatrix(rng, m, k), randomMatrix(rng, k, n),
                  1.0f, &bias);
    EXPECT_EQ(sim.gArray().matmulCycles(),
              TimingModel::matmulCycles(m, k, n, s));
    EXPECT_EQ(sim.gArray().simdCycles(),
              4 * TimingModel::simdPassCycles(m, n, s));
}

TEST(FunctionalSimDeathTest, MismatchedBatchPanics)
{
    Rng rng(9);
    FunctionalSimulator sim = makeSim();
    std::vector<Matrix> q{ randomMatrix(rng, 4, 4) };
    std::vector<Matrix> k{ randomMatrix(rng, 4, 4),
                           randomMatrix(rng, 4, 4) };
    std::vector<Matrix> v{ randomMatrix(rng, 4, 4) };
    EXPECT_DEATH(sim.dataflow3(q, k, v, 1.0f), "batch mismatch");
}

TEST(FunctionalSim, Dataflow3BatchParallelMatchesSerial)
{
    // A multi-element batch takes the clone-array fan-out; running each
    // element alone (batch 1 stays on the serial path) must give the
    // same matrices bit-for-bit AND the same cycle/MAC accounting.
    ThreadPool pool(4);
    ThreadPool::setGlobalOverride(&pool);
    Rng rng(31);
    std::vector<Matrix> q, k, v;
    for (int b = 0; b < 4; ++b) {
        q.push_back(randomMatrix(rng, 9, 6, 0.3f));
        k.push_back(randomMatrix(rng, 9, 6, 0.3f));
        v.push_back(randomMatrix(rng, 9, 6, 0.3f));
    }

    FunctionalSimulator batched = makeSim();
    const std::vector<Matrix> ctx = batched.dataflow3(q, k, v, 0.4f);
    ThreadPool::setGlobalOverride(nullptr);

    FunctionalSimulator serial = makeSim();
    ASSERT_EQ(ctx.size(), q.size());
    for (std::size_t b = 0; b < q.size(); ++b) {
        const auto one =
            serial.dataflow3({ q[b] }, { k[b] }, { v[b] }, 0.4f);
        EXPECT_EQ(Matrix::maxAbsDiff(ctx[b], one[0]), 0.0f) << "batch " << b;
    }
    EXPECT_EQ(batched.matmulCycles(), serial.matmulCycles());
    EXPECT_EQ(batched.simdCycles(), serial.simdCycles());
    EXPECT_EQ(batched.macCount(), serial.macCount());
}

// The engine contract at the paper's layer size (sequence 128, hidden
// 768, 12 heads, FFN 3072), not only in the smoke shapes above:
// Validate runs the stepped PE walk and the fast engine on every tile
// and panics on any divergence in results or statistics.
constexpr std::size_t kFullSeq = 128, kFullHidden = 768, kFullHeads = 12,
                      kFullFfn = 3072;

/** Seeds FunctionalSim.AbftRepairsOneFlipAtFullSizeBitForBit's single
 *  flip. */
constexpr std::uint64_t kOneFlipSeed = 3;

TEST(FunctionalSim, FullSizeDataflow1Validates)
{
    Rng rng(41);
    Matrix bias(1, kFullHidden);
    bias.fillGaussian(rng, 0.0f, 1.0f);
    FunctionalSimulator sim;
    sim.setMode(FsimMode::Validate);
    const Matrix out =
        sim.dataflow1(randomMatrix(rng, kFullSeq, kFullHidden, 0.5f),
                      randomMatrix(rng, kFullHidden, kFullHidden, 0.05f),
                      1.0f, &bias);
    EXPECT_EQ(out.rows(), kFullSeq);
    EXPECT_EQ(out.cols(), kFullHidden);
    EXPECT_EQ(sim.mArray().matmulCycles(),
              TimingModel::matmulCycles(kFullSeq, kFullHidden, kFullHidden,
                                        64));
    EXPECT_EQ(sim.mArray().simdCycles(),
              3 * TimingModel::simdPassCycles(kFullSeq, kFullHidden, 64));
}

TEST(FunctionalSim, FullSizeDataflow2Validates)
{
    Rng rng(42);
    Matrix bias(1, kFullFfn);
    bias.fillGaussian(rng, 0.0f, 1.0f);
    FunctionalSimulator sim;
    sim.setMode(FsimMode::Validate);
    const Matrix out =
        sim.dataflow2(randomMatrix(rng, kFullSeq, kFullHidden, 0.5f),
                      randomMatrix(rng, kFullHidden, kFullFfn, 0.05f),
                      1.0f, &bias);
    EXPECT_EQ(out.rows(), kFullSeq);
    EXPECT_EQ(out.cols(), kFullFfn);
    EXPECT_EQ(sim.gArray().matmulCycles(),
              TimingModel::matmulCycles(kFullSeq, kFullHidden, kFullFfn,
                                        32));
    EXPECT_EQ(sim.gArray().simdCycles(),
              4 * TimingModel::simdPassCycles(kFullSeq, kFullFfn, 32));
}

/** DF1 at the paper's full size and depth k, ABFT on unless told
 *  otherwise, on the fast engine: the checksums act on the finished
 *  tile, whichever engine computed it, and the engines are pinned to
 *  each other elsewhere. */
Matrix
fullSizeAbftDataflow1(FunctionalSimulator &sim, std::size_t k,
                      std::uint64_t seed, bool abft = true)
{
    Rng rng(seed);
    Matrix bias(1, kFullHidden);
    bias.fillGaussian(rng, 0.0f, 1.0f);
    const Matrix a = randomMatrix(rng, kFullSeq, k, 0.5f);
    const Matrix b = randomMatrix(rng, k, kFullHidden, 0.05f);
    sim.setMode(FsimMode::Fast);
    sim.setAbft(AbftOptions{ abft });
    return sim.dataflow1(a, b, 1.0f, &bias);
}

TEST(FunctionalSim, AbftFlagsNoCleanTileAtFullDepth)
{
    // kRelTolerance claims its margin over fp32 rounding noise at
    // practical depths: hold it to the encoder's deepest DF1, the FFN
    // down projection at k = 3072, as well as k = 768.
    for (std::size_t k : { kFullHidden, kFullFfn }) {
        FunctionalSimulator sim;
        fullSizeAbftDataflow1(sim, k, 47);
        EXPECT_EQ(sim.abftStats().tilesChecked,
                  (kFullSeq / 64) * (kFullHidden / 64))
            << "k " << k;
        EXPECT_EQ(sim.abftStats().tilesFlagged, 0u) << "k " << k;
    }
}

TEST(FunctionalSim, AbftRepairsOneFlipAtFullSizeBitForBit)
{
    // One seeded transient flip in a 128 x 768 DF1 output (the seed and
    // rate give exactly one): it is located and corrected, and the
    // repaired cell drains to the fault-free output bit for bit.
    FunctionalSimulator clean;
    const Matrix want = fullSizeAbftDataflow1(clean, kFullHidden, 48);
    ASSERT_EQ(clean.abftStats().tilesFlagged, 0u);

    CampaignSpec spec;
    spec.seed = kOneFlipSeed;
    spec.accFlipRate = 1.0 / static_cast<double>(kFullSeq * kFullHidden);
    FaultInjector injector(spec);
    FunctionalSimulator sim;
    sim.setFaultInjector(&injector);
    const Matrix got = fullSizeAbftDataflow1(sim, kFullHidden, 48);
    ASSERT_EQ(injector.events().size(), 1u);
    // Unrepaired, the flip reaches the output.
    FaultInjector replay(spec);
    FunctionalSimulator unchecked;
    unchecked.setFaultInjector(&replay);
    const Matrix flipped =
        fullSizeAbftDataflow1(unchecked, kFullHidden, 48, false);
    EXPECT_NE(std::memcmp(flipped.data(), want.data(),
                          want.size() * sizeof(float)),
              0);
    const AbftStats &stats = sim.abftStats();
    EXPECT_EQ(stats.tilesFlagged, 1u);
    EXPECT_EQ(stats.locatedElements, 1u);
    EXPECT_EQ(stats.correctedElements, 1u);
    EXPECT_EQ(stats.ambiguousElements, 0u);
    EXPECT_EQ(stats.unlocatedTiles, 0u);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(float)),
              0);
}

TEST(FunctionalSim, FullSizeDataflow3Validates)
{
    Rng rng(43);
    const std::size_t dk = kFullHidden / kFullHeads;
    std::vector<Matrix> q, k, v;
    for (std::size_t h = 0; h < kFullHeads; ++h) {
        q.push_back(randomMatrix(rng, kFullSeq, dk, 0.3f));
        k.push_back(randomMatrix(rng, kFullSeq, dk, 0.3f));
        v.push_back(randomMatrix(rng, kFullSeq, dk, 0.3f));
    }
    FunctionalSimulator sim;
    sim.setMode(FsimMode::Validate);
    const std::vector<Matrix> ctx = sim.dataflow3(
        q, k, v, 1.0f / std::sqrt(static_cast<float>(dk)));
    ASSERT_EQ(ctx.size(), kFullHeads);
    for (const Matrix &head : ctx) {
        EXPECT_EQ(head.rows(), kFullSeq);
        EXPECT_EQ(head.cols(), dk);
        for (std::size_t i = 0; i < head.rows(); ++i)
            for (std::size_t j = 0; j < head.cols(); ++j)
                ASSERT_TRUE(std::isfinite(head(i, j)));
    }
}

} // namespace
} // namespace prose
