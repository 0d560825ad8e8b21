/** @file Cross-validation of the fast-forward execution engine against
 *  the cycle-stepped reference: randomized geometries, tile shapes,
 *  supply rates, and op mixes must agree bit-for-bit in register file,
 *  cycle/stall/MAC counters, and stream-buffer state. Fault injection
 *  and ABFT run on the requested engine and must leave outputs, event
 *  logs and ABFT accounting identical across fast, stepped and
 *  validate. Also pins down the live-region (bounding-box union)
 *  semantics with mixed tile sizes and the degenerate edge shapes. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.hh"
#include "fault/fault_injector.hh"
#include "numerics/bfloat16.hh"
#include "numerics/matrix.hh"
#include "systolic/fsim_mode.hh"
#include "systolic/functional_sim.hh"
#include "systolic/systolic_array.hh"

namespace prose {
namespace {

Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols, float scale)
{
    Matrix m(rows, cols);
    m.fillGaussian(rng, 0.0f, scale);
    return m;
}

bool
bitEqual(float x, float y)
{
    return std::memcmp(&x, &y, sizeof(float)) == 0;
}

void
expectBitIdentical(const Matrix &a, const Matrix &b, const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            ASSERT_TRUE(bitEqual(a(i, j), b(i, j)))
                << what << " (" << i << "," << j << "): " << a(i, j)
                << " vs " << b(i, j);
}

/** Everything observable after an op sequence. */
struct SequenceResult
{
    std::vector<Matrix> drains;
    Matrix finalAcc;
    std::uint64_t matmulCycles = 0;
    std::uint64_t simdCycles = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t macCount = 0;
    std::uint64_t simdOpCount = 0;
    double aOccupancy = 0.0;
    double bOccupancy = 0.0;
    std::uint64_t aStalls = 0;
    std::uint64_t bStalls = 0;
    std::uint64_t aConsumed = 0;
    std::uint64_t bConsumed = 0;
};

void
captureStats(const SystolicArray &array, SequenceResult &result)
{
    result.matmulCycles = array.matmulCycles();
    result.simdCycles = array.simdCycles();
    result.stallCycles = array.stallCycles();
    result.macCount = array.macCount();
    result.simdOpCount = array.simdOpCount();
    result.aOccupancy = array.aBuffer().occupancy();
    result.bOccupancy = array.bBuffer().occupancy();
    result.aStalls = array.aBuffer().stallCycles();
    result.bStalls = array.bBuffer().stallCycles();
    result.aConsumed = array.aBuffer().consumed();
    result.bConsumed = array.bBuffer().consumed();
}

/**
 * Replay a seed-determined random op sequence on one array. The rng
 * draws are identical across modes, so two calls with the same seed see
 * the same geometry, rates, shapes, data, and op mix.
 */
SequenceResult
runRandomSequence(FsimMode mode, std::uint64_t seed, bool ideal_rates)
{
    Rng rng(seed);
    const std::size_t dim = 4 + rng.below(13); // 4..16
    ArrayGeometry geom = ArrayGeometry::gType(dim);
    geom.hasExp = true; // exercise both LUT kinds on one array
    const double a_rate = ideal_rates ? 1e18 : rng.uniform(0.2, 2.5);
    const double b_rate = ideal_rates ? 1e18 : rng.uniform(0.2, 2.5);
    SystolicArray array(geom, a_rate, b_rate);
    array.setMode(mode);

    SequenceResult result;
    bool live = false;
    const std::size_t ops = 12;
    for (std::size_t op = 0; op < ops; ++op) {
        const std::uint64_t kind = live ? rng.below(6) : 0;
        switch (kind) {
          case 0: { // matmul (accumulates into any live tile)
            const std::size_t rows = 1 + rng.below(dim);
            const std::size_t cols = 1 + rng.below(dim);
            const std::size_t k = 1 + rng.below(24);
            const float scale =
                static_cast<float>(rng.uniform(0.2, 4.0));
            const Matrix a = randomMatrix(rng, rows, k, scale);
            const Matrix b = randomMatrix(rng, k, cols, scale);
            array.matmulTile(a, b);
            live = true;
            break;
          }
          case 1:
            array.simdScalar(SimdOp::MulScalar,
                             static_cast<float>(rng.uniform(-2.0, 2.0)));
            break;
          case 2:
            array.simdScalar(SimdOp::AddScalar,
                             static_cast<float>(rng.uniform(-2.0, 2.0)));
            break;
          case 3: {
            const SimdOp op_kind =
                rng.below(2) ? SimdOp::MulVector : SimdOp::AddVector;
            array.simdVector(op_kind,
                             randomMatrix(rng, dim, dim, 1.0f));
            break;
          }
          case 4:
            array.simdSpecial(rng.below(2) ? SimdOp::Gelu : SimdOp::Exp);
            break;
          case 5: {
            Matrix out;
            array.drain(out);
            result.drains.push_back(std::move(out));
            live = false;
            break;
          }
        }
    }
    if (live)
        result.finalAcc = array.accumulators();
    captureStats(array, result);
    return result;
}

void
expectSequencesAgree(const SequenceResult &fast,
                     const SequenceResult &stepped)
{
    ASSERT_EQ(fast.drains.size(), stepped.drains.size());
    for (std::size_t d = 0; d < fast.drains.size(); ++d)
        expectBitIdentical(fast.drains[d], stepped.drains[d], "drain");
    expectBitIdentical(fast.finalAcc, stepped.finalAcc, "accumulators");
    EXPECT_EQ(fast.matmulCycles, stepped.matmulCycles);
    EXPECT_EQ(fast.simdCycles, stepped.simdCycles);
    EXPECT_EQ(fast.stallCycles, stepped.stallCycles);
    EXPECT_EQ(fast.macCount, stepped.macCount);
    EXPECT_EQ(fast.simdOpCount, stepped.simdOpCount);
    EXPECT_EQ(fast.aStalls, stepped.aStalls);
    EXPECT_EQ(fast.bStalls, stepped.bStalls);
    EXPECT_EQ(fast.aConsumed, stepped.aConsumed);
    EXPECT_EQ(fast.bConsumed, stepped.bConsumed);
    EXPECT_TRUE(std::memcmp(&fast.aOccupancy, &stepped.aOccupancy,
                            sizeof(double)) == 0)
        << fast.aOccupancy << " vs " << stepped.aOccupancy;
    EXPECT_TRUE(std::memcmp(&fast.bOccupancy, &stepped.bOccupancy,
                            sizeof(double)) == 0)
        << fast.bOccupancy << " vs " << stepped.bOccupancy;
}

TEST(FastForward, MatchesSteppedOnRandomSequencesIdealSupply)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        expectSequencesAgree(
            runRandomSequence(FsimMode::Fast, seed, true),
            runRandomSequence(FsimMode::Stepped, seed, true));
    }
}

TEST(FastForward, MatchesSteppedOnRandomSequencesFractionalSupply)
{
    bool saw_stalls = false;
    for (std::uint64_t seed = 100; seed <= 112; ++seed) {
        SCOPED_TRACE(seed);
        const SequenceResult fast =
            runRandomSequence(FsimMode::Fast, seed, false);
        expectSequencesAgree(
            fast, runRandomSequence(FsimMode::Stepped, seed, false));
        saw_stalls = saw_stalls || fast.stallCycles > 0;
    }
    // The sweep must actually exercise the stall-gating replay.
    EXPECT_TRUE(saw_stalls);
}

TEST(FastForward, ValidateModeRunsBothEnginesAndAgrees)
{
    // Validate panics on any engine divergence; it must also produce
    // exactly the stepped results.
    for (std::uint64_t seed = 200; seed <= 206; ++seed) {
        SCOPED_TRACE(seed);
        expectSequencesAgree(
            runRandomSequence(FsimMode::Validate, seed, true),
            runRandomSequence(FsimMode::Stepped, seed, true));
        expectSequencesAgree(
            runRandomSequence(FsimMode::Validate, seed, false),
            runRandomSequence(FsimMode::Stepped, seed, false));
    }

    // The degenerate wavefront geometries, each on a fresh array so a
    // divergence names the exact shape: 1-wide tiles, full-dim tiles,
    // depth-1 products, and a depth past the GEMM kernels' blocking.
    const std::size_t dim = 8;
    const std::size_t extents[] = { 1, 2, 3, dim - 1, dim };
    const std::size_t depths[] = { 1, 2, 5, 33 };
    Rng rng(2024);
    for (const std::size_t rows : extents) {
        for (const std::size_t cols : extents) {
            for (const std::size_t k : depths) {
                SCOPED_TRACE(testing::Message()
                             << rows << "x" << k << " * " << k << "x"
                             << cols);
                SystolicArray array(ArrayGeometry::mType(dim));
                array.setMode(FsimMode::Validate);
                array.matmulTile(randomMatrix(rng, rows, k, 2.0f),
                                 randomMatrix(rng, k, cols, 2.0f));
                EXPECT_EQ(array.macCount(), rows * cols * k);
            }
        }
    }

    // Mixed tiles accumulating into one live region: wider, taller and
    // strict-subset steps of the bounding-box union, then the drain.
    SystolicArray array(ArrayGeometry::mType(dim));
    array.setMode(FsimMode::Validate);
    const std::size_t shapes[][3] = {
        { 5, 3, 4 }, { 2, 7, 6 }, { 1, 4, 2 }, { 8, 2, 8 }, { 3, 9, 3 }
    };
    for (const auto &shape : shapes) {
        array.matmulTile(randomMatrix(rng, shape[0], shape[1], 1.0f),
                         randomMatrix(rng, shape[1], shape[2], 1.0f));
    }
    Matrix out;
    EXPECT_EQ(array.drain(out), dim);
    EXPECT_EQ(out.rows(), dim);
}

TEST(FastForward, MatchesSteppedOnWideTileWithInfAndNaN)
{
    // The Matrix overload widens its quantized operands and runs the
    // fast engine's fp32 core; pin it against the stepped PE walk on a
    // tile one column past a 64-column block, with +-Inf, NaN and +-0
    // operands (0 * Inf must make NaN in both engines). NaN payloads
    // are outside the contract, so any NaN matches any NaN.
    Rng rng(65);
    Matrix a = randomMatrix(rng, 7, 40, 2.0f);
    Matrix b = randomMatrix(rng, 40, 65, 2.0f);
    const float inf = std::numeric_limits<float>::infinity();
    a(0, 3) = 0.0f;
    a(2, 9) = -inf;
    a(5, 39) = std::numeric_limits<float>::quiet_NaN();
    a(6, 0) = -0.0f;
    b(3, 64) = inf;
    b(9, 63) = -0.0f;
    b(17, 0) = std::numeric_limits<float>::quiet_NaN();
    b(39, 64) = -inf;

    Matrix want;
    std::uint64_t want_cycles = 0;
    for (FsimMode mode :
         { FsimMode::Stepped, FsimMode::Fast, FsimMode::Validate }) {
        SCOPED_TRACE(toString(mode));
        SystolicArray array(ArrayGeometry::mType(72));
        array.setMode(mode);
        const std::uint64_t cycles = array.matmulTile(a, b);
        EXPECT_EQ(array.macCount(), 7u * 65u * 40u);
        const Matrix got = array.accumulators();
        if (mode == FsimMode::Stepped) {
            want = got;
            want_cycles = cycles;
            EXPECT_TRUE(std::isnan(want(0, 64)));
            continue;
        }
        EXPECT_EQ(cycles, want_cycles);
        ASSERT_TRUE(got.sameShape(want));
        for (std::size_t i = 0; i < got.size(); ++i) {
            const float g = got.data()[i];
            const float w = want.data()[i];
            EXPECT_TRUE((std::isnan(g) && std::isnan(w)) || bitEqual(g, w))
                << "element " << i << ": " << g << " vs " << w;
        }
    }
}

TEST(FastForward, AlphaAndAddendVariantsThroughFunctionalSim)
{
    Rng rng(42);
    const Matrix a = randomMatrix(rng, 37, 29, 1.0f);
    const Matrix b = randomMatrix(rng, 29, 41, 1.0f);
    const Matrix bias = randomMatrix(rng, 1, 41, 1.0f);
    const Matrix residual = randomMatrix(rng, 37, 41, 1.0f);
    const float alphas[] = { 1.0f, 0.125f, -1.75f };
    const Matrix *addends[] = { nullptr, &bias, &residual };

    for (const float alpha : alphas) {
        for (const Matrix *addend : addends) {
            FunctionalSimulator fast_sim(ArrayGeometry::mType(16),
                                         ArrayGeometry::gType(16),
                                         ArrayGeometry::eType(16));
            FunctionalSimulator stepped_sim(ArrayGeometry::mType(16),
                                            ArrayGeometry::gType(16),
                                            ArrayGeometry::eType(16));
            fast_sim.setMode(FsimMode::Fast);
            stepped_sim.setMode(FsimMode::Stepped);
            expectBitIdentical(fast_sim.dataflow1(a, b, alpha, addend),
                               stepped_sim.dataflow1(a, b, alpha, addend),
                               "dataflow1");
            expectBitIdentical(fast_sim.dataflow2(a, b, alpha, addend),
                               stepped_sim.dataflow2(a, b, alpha, addend),
                               "dataflow2");
            EXPECT_EQ(fast_sim.matmulCycles(),
                      stepped_sim.matmulCycles());
            EXPECT_EQ(fast_sim.simdCycles(), stepped_sim.simdCycles());
            EXPECT_EQ(fast_sim.macCount(), stepped_sim.macCount());
        }
    }
}

TEST(FastForward, Dataflow3BatchParallelClonesInheritTheEngine)
{
    Rng rng(7);
    std::vector<Matrix> q, k, v;
    for (int batch = 0; batch < 4; ++batch) {
        q.push_back(randomMatrix(rng, 20, 12, 1.0f));
        k.push_back(randomMatrix(rng, 20, 12, 1.0f));
        v.push_back(randomMatrix(rng, 20, 12, 1.0f));
    }
    FunctionalSimulator fast_sim;
    FunctionalSimulator stepped_sim;
    fast_sim.setMode(FsimMode::Fast);
    stepped_sim.setMode(FsimMode::Stepped);
    const std::vector<Matrix> fast_ctx =
        fast_sim.dataflow3(q, k, v, 0.288675f);
    const std::vector<Matrix> stepped_ctx =
        stepped_sim.dataflow3(q, k, v, 0.288675f);
    ASSERT_EQ(fast_ctx.size(), stepped_ctx.size());
    for (std::size_t batch = 0; batch < fast_ctx.size(); ++batch)
        expectBitIdentical(fast_ctx[batch], stepped_ctx[batch],
                           "dataflow3 context");
    EXPECT_EQ(fast_sim.matmulCycles(), stepped_sim.matmulCycles());
    EXPECT_EQ(fast_sim.simdCycles(), stepped_sim.simdCycles());
    EXPECT_EQ(fast_sim.macCount(), stepped_sim.macCount());
}

/**
 * Live-region semantics (see docs/MICROARCHITECTURE.md): the live
 * region is the bounding-box UNION of all tiles since the last
 * drain/clear, because a smaller tile leaves the larger tile's stale
 * accumulators physically in place and the rotation/OUTPUT sweeps must
 * cover them.
 */
TEST(LiveRegion, MixedTileSizesKeepTheBoundingBoxUnion)
{
    Rng rng(11);
    SystolicArray array(ArrayGeometry::mType(8));
    array.setMode(FsimMode::Validate);

    const Matrix a1 = randomMatrix(rng, 5, 3, 1.0f);
    const Matrix b1 = randomMatrix(rng, 3, 4, 1.0f);
    array.matmulTile(a1, b1);
    EXPECT_EQ(array.accumulators().rows(), 5u);
    EXPECT_EQ(array.accumulators().cols(), 4u);

    // A smaller tile does NOT shrink the live region...
    const Matrix a2 = randomMatrix(rng, 2, 7, 1.0f);
    const Matrix b2 = randomMatrix(rng, 7, 6, 1.0f);
    array.matmulTile(a2, b2);
    const Matrix acc = array.accumulators();
    ASSERT_EQ(acc.rows(), 5u);
    ASSERT_EQ(acc.cols(), 6u);

    // ...and the union holds both products, zero elsewhere.
    const Matrix p1 = matmulBf16(a1, b1);
    const Matrix p2 = matmulBf16(a2, b2);
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 6; ++j) {
            float expected = 0.0f;
            if (i < p1.rows() && j < p1.cols())
                expected += p1(i, j);
            if (i < p2.rows() && j < p2.cols())
                expected += p2(i, j);
            ASSERT_TRUE(bitEqual(acc(i, j), expected))
                << i << "," << j;
        }
    }

    // SIMD passes and the OUTPUT port sweep the whole union: one cycle
    // per live column.
    EXPECT_EQ(array.simdScalar(SimdOp::MulScalar, 1.0f), 6u);
    Matrix out;
    EXPECT_EQ(array.drain(out), 6u);
    EXPECT_EQ(out.rows(), 5u);
    EXPECT_EQ(out.cols(), 6u);

    // drain() clears the region, so a following small tile starts a
    // fresh bounding box.
    array.matmulTile(a2, b2);
    EXPECT_EQ(array.accumulators().rows(), 2u);
    EXPECT_EQ(array.accumulators().cols(), 6u);
}

TEST(FastForwardFallback, InjectorKeepsRequestedEngineWithUnchangedReplay)
{
    CampaignSpec spec;
    spec.seed = 77;
    spec.accFlipRate = 0.05;
    FaultInjector fast_injector(spec);
    FaultInjector stepped_injector(spec);

    Rng rng(5);
    SystolicArray fast_array(ArrayGeometry::mType(8));
    fast_array.setMode(FsimMode::Fast);
    fast_array.setFaultInjector(&fast_injector, "M0");

    // Validate runs both engines on the clean tile, then corrupts once.
    SystolicArray validate_array(ArrayGeometry::mType(8));
    validate_array.setMode(FsimMode::Validate);
    FaultInjector validate_injector(spec);
    validate_array.setFaultInjector(&validate_injector, "M0");

    SystolicArray stepped_array(ArrayGeometry::mType(8));
    stepped_array.setMode(FsimMode::Stepped);
    stepped_array.setFaultInjector(&stepped_injector, "M0");

    for (int tile = 0; tile < 3; ++tile) {
        const Matrix a = randomMatrix(rng, 7, 6, 1.0f);
        const Matrix b = randomMatrix(rng, 6, 8, 1.0f);
        fast_array.matmulTile(a, b);
        validate_array.matmulTile(a, b);
        stepped_array.matmulTile(a, b);
    }
    // Bit-identical corruption and an identical deterministic log.
    expectBitIdentical(fast_array.accumulators(),
                       stepped_array.accumulators(), "fault acc");
    expectBitIdentical(validate_array.accumulators(),
                       stepped_array.accumulators(), "fault acc (val)");
    EXPECT_EQ(fast_injector.eventLogText(),
              stepped_injector.eventLogText());
    EXPECT_EQ(validate_injector.eventLogText(),
              stepped_injector.eventLogText());
    EXPECT_FALSE(fast_injector.events().empty());
}

TEST(FastForwardFallback, AbftKeepsRequestedEngineWithUnchangedDetection)
{
    CampaignSpec spec;
    spec.seed = 123;
    spec.accFlipRate = 0.01;
    FaultInjector fast_injector(spec);
    FaultInjector stepped_injector(spec);

    Rng rng(9);
    const Matrix a = randomMatrix(rng, 40, 24, 1.0f);
    const Matrix b = randomMatrix(rng, 24, 36, 1.0f);

    AbftOptions abft;
    abft.enabled = true;

    FunctionalSimulator fast_sim;
    fast_sim.setMode(FsimMode::Fast);
    fast_sim.setAbft(abft);
    fast_sim.setFaultInjector(&fast_injector);
    // ABFT checks the finished tile before the SIMD passes, whichever
    // engine computed it: the simulator keeps the requested engine.
    EXPECT_EQ(fast_sim.mode(), FsimMode::Fast);
    EXPECT_EQ(fast_sim.mArray().mode(), FsimMode::Fast);

    FunctionalSimulator stepped_sim;
    stepped_sim.setMode(FsimMode::Stepped);
    stepped_sim.setAbft(abft);
    stepped_sim.setFaultInjector(&stepped_injector);
    EXPECT_EQ(stepped_sim.mArray().mode(), FsimMode::Stepped);

    expectBitIdentical(fast_sim.dataflow1(a, b, 1.0f, nullptr),
                       stepped_sim.dataflow1(a, b, 1.0f, nullptr),
                       "abft dataflow1");
    const AbftStats &fs = fast_sim.abftStats();
    const AbftStats &ss = stepped_sim.abftStats();
    EXPECT_EQ(fs.tilesChecked, ss.tilesChecked);
    EXPECT_EQ(fs.tilesFlagged, ss.tilesFlagged);
    EXPECT_EQ(fs.locatedElements, ss.locatedElements);
    EXPECT_EQ(fs.correctedElements, ss.correctedElements);
    EXPECT_GT(fs.tilesFlagged, 0u);
    EXPECT_EQ(fast_injector.eventLogText(),
              stepped_injector.eventLogText());
}

/** Everything observable after one faulted, ABFT-checked layer chain. */
struct ChainResult
{
    std::vector<Matrix> outputs;
    std::uint64_t matmulCycles = 0;
    std::uint64_t simdCycles = 0;
    std::uint64_t macCount = 0;
    std::string eventLog;
    AbftStats abft;
};

/**
 * One encoder layer as the Figure 8 chain DF1 -> DF3 -> DF1 -> DF2 ->
 * DF1 on a FunctionalSimulator in `mode`, under the campaign `spec`
 * with ABFT repairing located cells. The shapes leave partial edge
 * tiles on every array (M 64, G 32, E 16).
 */
ChainResult
runFaultedChain(FsimMode mode, const std::string &spec)
{
    constexpr std::size_t kSeq = 40, kHidden = 48, kHeads = 2,
                          kInter = 72;
    constexpr std::size_t kDk = kHidden / kHeads;
    Rng rng(2024);
    const Matrix x = randomMatrix(rng, kSeq, kHidden, 1.0f);
    const Matrix w_qkv = randomMatrix(rng, kHidden, kHidden, 0.3f);
    const Matrix w_out = randomMatrix(rng, kDk, kHidden, 0.3f);
    const Matrix w_up = randomMatrix(rng, kHidden, kInter, 0.3f);
    const Matrix w_down = randomMatrix(rng, kInter, kHidden, 0.3f);
    const Matrix bias_up = randomMatrix(rng, 1, kInter, 0.1f);

    FaultInjector injector(CampaignSpec::parse(spec));
    FunctionalSimulator fsim;
    fsim.setMode(mode);
    AbftOptions abft;
    abft.enabled = true;
    fsim.setAbft(abft);
    fsim.setFaultInjector(&injector);

    ChainResult result;
    const Matrix qkv = fsim.dataflow1(x, w_qkv, 1.0f, nullptr);
    std::vector<Matrix> q, k, v;
    for (std::size_t h = 0; h < kHeads; ++h) {
        Matrix head(kSeq, kDk);
        for (std::size_t i = 0; i < kSeq; ++i)
            std::copy_n(qkv.row(i) + h * kDk, kDk, head.row(i));
        q.push_back(head);
        k.push_back(head);
        v.push_back(std::move(head));
    }
    const std::vector<Matrix> attn =
        fsim.dataflow3(q, k, v, 1.0f / std::sqrt(float(kDk)));
    const Matrix proj = fsim.dataflow1(attn.front(), w_out, 1.0f, &x);
    const Matrix up = fsim.dataflow2(proj, w_up, 1.0f, &bias_up);
    const Matrix down = fsim.dataflow1(up, w_down, 1.0f, &proj);
    result.outputs = { qkv, attn.front(), attn.back(), proj, up, down };
    result.matmulCycles = fsim.matmulCycles();
    result.simdCycles = fsim.simdCycles();
    result.macCount = fsim.macCount();
    result.eventLog = injector.eventLogText();
    result.abft = fsim.abftStats();
    return result;
}

void
expectChainsAgree(const ChainResult &got, const ChainResult &want,
                  const char *what)
{
    ASSERT_EQ(got.outputs.size(), want.outputs.size()) << what;
    for (std::size_t i = 0; i < got.outputs.size(); ++i)
        expectBitIdentical(got.outputs[i], want.outputs[i], what);
    EXPECT_EQ(got.matmulCycles, want.matmulCycles) << what;
    EXPECT_EQ(got.simdCycles, want.simdCycles) << what;
    EXPECT_EQ(got.macCount, want.macCount) << what;
    EXPECT_EQ(got.eventLog, want.eventLog) << what;
    EXPECT_EQ(got.abft.tilesChecked, want.abft.tilesChecked) << what;
    EXPECT_EQ(got.abft.tilesFlagged, want.abft.tilesFlagged) << what;
    EXPECT_EQ(got.abft.locatedElements, want.abft.locatedElements)
        << what;
    EXPECT_EQ(got.abft.ambiguousElements, want.abft.ambiguousElements)
        << what;
    EXPECT_EQ(got.abft.correctedElements, want.abft.correctedElements)
        << what;
    EXPECT_EQ(got.abft.unlocatedTiles, want.abft.unlocatedTiles) << what;
}

TEST(FaultedEngines, LayerChainUnderFlipsAndAbftMatchesAcrossEngines)
{
    const std::string spec =
        "seed=31 acc_flip_rate=0.002 flip_bits=16:29";
    const ChainResult stepped = runFaultedChain(FsimMode::Stepped, spec);
    expectChainsAgree(runFaultedChain(FsimMode::Fast, spec), stepped,
                      "fast");
    expectChainsAgree(runFaultedChain(FsimMode::Validate, spec), stepped,
                      "validate");
    EXPECT_FALSE(stepped.eventLog.empty());
    EXPECT_GT(stepped.abft.tilesFlagged, 0u);
    EXPECT_GT(stepped.abft.correctedElements, 0u);
}

TEST(FaultedEngines, LayerChainUnderStuckBitsAndAbftMatchesAcrossEngines)
{
    // One stuck bit per array type: M0 and G0 inside their first
    // tile, E0 inside the 16 x 16 attention tiles. The second campaign
    // arms only M0, so G0 and E0 run with an attached injector that
    // never touches their accumulators.
    const char *specs[] = {
        "seed=5 stuck=M0:3:5:30:1 stuck=G0:7:2:29:1 stuck=E0:1:9:28:0",
        "seed=31 stuck=M0:2:3:30:1",
    };
    for (const char *spec : specs) {
        SCOPED_TRACE(spec);
        const ChainResult stepped =
            runFaultedChain(FsimMode::Stepped, spec);
        expectChainsAgree(runFaultedChain(FsimMode::Fast, spec), stepped,
                          "fast");
        expectChainsAgree(runFaultedChain(FsimMode::Validate, spec),
                          stepped, "validate");
        EXPECT_FALSE(stepped.eventLog.empty());
        EXPECT_GT(stepped.abft.tilesFlagged, 0u);
    }
}

TEST(FaultedEngines, CleanLayerChainWithAbftFlagsNothing)
{
    // No accumulator faults: every checksum must hold on every engine.
    // The chain spans several B column panels and row tiles per array,
    // so a checksum read from the wrong plane offset or a stale panel
    // sum would flag clean tiles.
    for (const FsimMode mode :
         { FsimMode::Fast, FsimMode::Stepped, FsimMode::Validate }) {
        const ChainResult clean = runFaultedChain(mode, "seed=9");
        EXPECT_GT(clean.abft.tilesChecked, 0u) << toString(mode);
        EXPECT_EQ(clean.abft.tilesFlagged, 0u) << toString(mode);
        EXPECT_TRUE(clean.eventLog.empty()) << toString(mode);
    }
}

TEST(FaultedEngines, ValidateAdvancesTheInjectorOncePerTile)
{
    CampaignSpec spec;
    spec.seed = 404;
    spec.accFlipRate = 0.02;
    // Link sampling only reads the RNG afterwards, to compare streams.
    spec.linkErrorRate = 0.5;
    FaultInjector validate_injector(spec);
    FaultInjector stepped_injector(spec);

    SystolicArray validate_array(ArrayGeometry::mType(8));
    validate_array.setMode(FsimMode::Validate);
    validate_array.setFaultInjector(&validate_injector, "M0");
    SystolicArray stepped_array(ArrayGeometry::mType(8));
    stepped_array.setMode(FsimMode::Stepped);
    stepped_array.setFaultInjector(&stepped_injector, "M0");

    Rng rng(12);
    for (int tile = 0; tile < 8; ++tile) {
        const std::size_t rows = 1 + rng.below(8);
        const std::size_t cols = 1 + rng.below(8);
        const std::size_t depth = 1 + rng.below(12);
        const Matrix a = randomMatrix(rng, rows, depth, 1.0f);
        const Matrix b = randomMatrix(rng, depth, cols, 1.0f);
        validate_array.matmulTile(a, b);
        stepped_array.matmulTile(a, b);
        Matrix validate_out, stepped_out;
        validate_array.drain(validate_out);
        stepped_array.drain(stepped_out);
        expectBitIdentical(validate_out, stepped_out, "validate drain");
    }
    const std::vector<FaultEvent> &got = validate_injector.events();
    const std::vector<FaultEvent> &want = stepped_injector.events();
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].seq, want[i].seq);
        EXPECT_EQ(got[i].describe(), want[i].describe());
    }
    // Both RNG streams stand at the same point: the next draws agree.
    for (int draw = 0; draw < 16; ++draw) {
        const auto v = validate_injector.sampleLinkTransfer('M');
        const auto s = stepped_injector.sampleLinkTransfer('M');
        EXPECT_EQ(v.error, s.error);
        EXPECT_EQ(v.timeout, s.timeout);
    }
}

TEST(FsimModeTest, ToStringSpellsTheEnvironmentValues)
{
    EXPECT_STREQ(toString(FsimMode::Fast), "fast");
    EXPECT_STREQ(toString(FsimMode::Stepped), "stepped");
    EXPECT_STREQ(toString(FsimMode::Validate), "validate");
}

} // namespace
} // namespace prose
