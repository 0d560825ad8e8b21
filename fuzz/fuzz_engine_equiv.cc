/**
 * @file
 * Structure-aware differential harness for the engine-equivalence
 * contract (docs/MICROARCHITECTURE.md §9): the cycle-stepped reference
 * walk and the fast-forward engine (alone and under validate) must
 * agree bit-for-bit on accumulators, drains, and every
 * cycle/stall/MAC counter, across SIMD tiers, fractional supply rates
 * and fault campaigns.
 *
 * The fuzz bytes are decoded into a (geometry, supply rates, SIMD
 * tier, fault campaign, op sequence) tuple via FuzzInput
 * — every byte string is a valid tuple, so the fuzzer spends its
 * entire budget searching the equivalence property, not fighting a
 * parser. Any divergence aborts via PROSE_ASSERT and becomes a
 * reproducible corpus entry.
 */

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "fault/fault_injector.hh"
#include "fuzz_common.hh"
#include "numerics/kernels/kernel_dispatch.hh"
#include "numerics/matrix.hh"
#include "systolic/fsim_mode.hh"
#include "systolic/systolic_array.hh"

using namespace prose;

namespace {

/** The decoded scenario, shared verbatim by every engine run. */
struct Scenario
{
    std::uint32_t dim = 4;
    double aRate = 1e18;
    double bRate = 1e18;
    std::optional<CampaignSpec> campaign;
    kernels::SimdTier tier = kernels::SimdTier::Scalar;

    struct Step
    {
        std::uint32_t kind = 0; ///< 0 matmul, 1..4 SIMD, 5 drain
        std::uint32_t rows = 1, cols = 1, k = 1;
        float scalar = 0.0f;
        std::vector<float> plane; ///< matmul/vector operand data
    };
    std::vector<Step> steps;
};

Scenario
decodeScenario(fuzz::FuzzInput &input)
{
    Scenario s;
    const std::uint32_t dims[] = { 4, 5, 8, 12, 16 };
    s.dim = input.pick(dims);

    const double rates[] = { 1e18, 2.5, 1.0, 0.75, 0.5, 0.25 };
    s.aRate = input.pick(rates);
    s.bRate = input.pick(rates);

    // Optional deterministic fault campaign. Corruption lands once per
    // tile, after whichever engine ran, so every engine must match the
    // reference's corrupted accumulators and its event log.
    if (input.u8() % 4 == 0) {
        CampaignSpec spec;
        spec.seed = 1 + input.below(1 << 20);
        const double rates_flip[] = { 0.001, 0.01, 0.05, 0.2 };
        spec.accFlipRate = input.pick(rates_flip);
        s.campaign = spec;
    }

    const kernels::SimdTier tiers[] = {
        kernels::SimdTier::Scalar,
        kernels::SimdTier::Avx2,
        kernels::SimdTier::Avx512,
    };
    kernels::SimdTier tier = input.pick(tiers);
    while (!kernels::simdTierAvailable(tier))
        tier = static_cast<kernels::SimdTier>(
            static_cast<int>(tier) - 1);
    s.tier = tier;

    const std::size_t steps = 1 + input.below(10);
    for (std::size_t i = 0; i < steps; ++i) {
        Scenario::Step step;
        step.kind = input.below(6);
        if (step.kind == 0) {
            step.rows = 1 + input.below(s.dim);
            step.cols = 1 + input.below(s.dim);
            step.k = 1 + input.below(12);
            step.plane.resize(step.rows * step.k + step.k * step.cols);
            for (float &v : step.plane)
                v = input.smallFloat();
        } else if (step.kind == 1 || step.kind == 2) {
            step.scalar = input.smallFloat();
        } else if (step.kind == 3) {
            step.scalar = input.u8() % 2 ? 1.0f : 0.0f; // op selector
            step.plane.resize(s.dim * s.dim);
            for (float &v : step.plane)
                v = input.smallFloat();
        } else if (step.kind == 4) {
            step.scalar = input.u8() % 2 ? 1.0f : 0.0f; // Gelu vs Exp
        }
        s.steps.push_back(std::move(step));
    }
    return s;
}

/** Everything observable after replaying a scenario on one engine. */
struct RunResult
{
    std::vector<Matrix> drains;
    Matrix finalAcc;
    std::uint64_t matmulCycles = 0;
    std::uint64_t simdCycles = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t macCount = 0;
    std::uint64_t simdOpCount = 0;
    std::uint64_t aStalls = 0;
    std::uint64_t bStalls = 0;
    std::uint64_t aConsumed = 0;
    std::uint64_t bConsumed = 0;
    std::string faultLog;
};

RunResult
runScenario(const Scenario &s, FsimMode mode)
{
    ArrayGeometry geom = ArrayGeometry::gType(s.dim);
    geom.hasExp = true; // both LUT kinds live on one array
    SystolicArray array(geom, s.aRate, s.bRate);
    array.setMode(mode);

    std::optional<FaultInjector> injector;
    if (s.campaign) {
        injector.emplace(*s.campaign);
        array.setFaultInjector(&*injector, "G0");
    }

    RunResult result;
    bool live = false;
    for (const Scenario::Step &step : s.steps) {
        // Non-matmul ops need a live tile; skip them identically on
        // every engine when nothing is live.
        if (step.kind != 0 && !live)
            continue;
        switch (step.kind) {
          case 0: {
            Matrix a(step.rows, step.k);
            Matrix b(step.k, step.cols);
            std::size_t at = 0;
            for (std::size_t i = 0; i < step.rows; ++i)
                for (std::size_t j = 0; j < step.k; ++j)
                    a(i, j) = step.plane[at++];
            for (std::size_t i = 0; i < step.k; ++i)
                for (std::size_t j = 0; j < step.cols; ++j)
                    b(i, j) = step.plane[at++];
            array.matmulTile(a, b);
            live = true;
            break;
          }
          case 1:
            array.simdScalar(SimdOp::MulScalar, step.scalar);
            break;
          case 2:
            array.simdScalar(SimdOp::AddScalar, step.scalar);
            break;
          case 3: {
            Matrix operand(s.dim, s.dim);
            std::size_t at = 0;
            for (std::size_t i = 0; i < s.dim; ++i)
                for (std::size_t j = 0; j < s.dim; ++j)
                    operand(i, j) = step.plane[at++];
            array.simdVector(step.scalar != 0.0f ? SimdOp::MulVector
                                                 : SimdOp::AddVector,
                             operand);
            break;
          }
          case 4:
            array.simdSpecial(step.scalar != 0.0f ? SimdOp::Gelu
                                                  : SimdOp::Exp);
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
    if (live) {
        const TileSpan acc = array.accumulatorView();
        result.finalAcc = Matrix(acc.rows, acc.cols);
        for (std::size_t i = 0; i < acc.rows; ++i)
            std::copy_n(acc.data + i * acc.stride, acc.cols,
                        result.finalAcc.row(i));
    }
    result.matmulCycles = array.matmulCycles();
    result.simdCycles = array.simdCycles();
    result.stallCycles = array.stallCycles();
    result.macCount = array.macCount();
    result.simdOpCount = array.simdOpCount();
    result.aStalls = array.aBuffer().stallCycles();
    result.bStalls = array.bBuffer().stallCycles();
    result.aConsumed = array.aBuffer().consumed();
    result.bConsumed = array.bBuffer().consumed();
    if (injector)
        result.faultLog = injector->eventLogText();
    return result;
}

void
assertBitIdentical(const Matrix &a, const Matrix &b, const char *what)
{
    PROSE_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                 "engine divergence (shape): ", what);
    // An empty matrix has no storage, and memcmp must not see its null
    // pointer even for zero bytes.
    PROSE_ASSERT(a.size() == 0 ||
                     std::memcmp(a.data(), b.data(),
                                 a.size() * sizeof(float)) == 0,
                 "engine divergence (bits): ", what);
}

void
assertRunsAgree(const RunResult &a, const RunResult &b, const char *who)
{
    PROSE_ASSERT(a.drains.size() == b.drains.size(),
                 "engine divergence (drain count): ", who);
    for (std::size_t d = 0; d < a.drains.size(); ++d)
        assertBitIdentical(a.drains[d], b.drains[d], who);
    assertBitIdentical(a.finalAcc, b.finalAcc, who);
    PROSE_ASSERT(a.matmulCycles == b.matmulCycles,
                 "engine divergence (matmul cycles): ", who);
    PROSE_ASSERT(a.simdCycles == b.simdCycles,
                 "engine divergence (simd cycles): ", who);
    PROSE_ASSERT(a.stallCycles == b.stallCycles,
                 "engine divergence (stall cycles): ", who);
    PROSE_ASSERT(a.macCount == b.macCount,
                 "engine divergence (mac count): ", who);
    PROSE_ASSERT(a.simdOpCount == b.simdOpCount,
                 "engine divergence (simd ops): ", who);
    PROSE_ASSERT(a.aStalls == b.aStalls && a.bStalls == b.bStalls,
                 "engine divergence (buffer stalls): ", who);
    PROSE_ASSERT(a.aConsumed == b.aConsumed &&
                     a.bConsumed == b.bConsumed,
                 "engine divergence (buffer consumption): ", who);
    PROSE_ASSERT(a.faultLog == b.faultLog,
                 "engine divergence (fault event log): ", who);
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    if (size > fuzz::kMaxInputBytes)
        return 0;
    fuzz::FuzzInput input(data, size);
    const Scenario scenario = decodeScenario(input);

    kernels::setActiveSimdTier(scenario.tier);
    const RunResult reference = runScenario(scenario, FsimMode::Stepped);
    assertRunsAgree(reference, runScenario(scenario, FsimMode::Fast),
                    "fast vs reference");
    assertRunsAgree(reference, runScenario(scenario, FsimMode::Validate),
                    "validate vs reference");
    kernels::setActiveSimdTier(kernels::bestSimdTier());
    return 0;
}
