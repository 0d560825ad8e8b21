#include "systolic_array.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "common/scratch.hh"
#include "fault/fault_injector.hh"
#include "numerics/bfloat16.hh"
#include "numerics/float_bits.hh"
#include "numerics/kernels/kernel_dispatch.hh"
#include "numerics/lut.hh"

namespace prose {
namespace {

/** operand(i, pass) through a TileSpan (broadcast-aware). */
inline float
spanAt(const TileSpan &span, std::size_t i, std::size_t pass)
{
    const std::size_t row = span.broadcastRow ? 0 : i;
    return span.data[row * span.stride + pass];
}

} // namespace

const char *
toString(SimdOp op)
{
    switch (op) {
      case SimdOp::MulScalar:
        return "MulScalar";
      case SimdOp::AddScalar:
        return "AddScalar";
      case SimdOp::MulVector:
        return "MulVector";
      case SimdOp::AddVector:
        return "AddVector";
      case SimdOp::Gelu:
        return "Gelu";
      case SimdOp::Exp:
        return "Exp";
    }
    return "?";
}

SystolicArray::SystolicArray(const ArrayGeometry &geometry,
                             double a_supply_rate, double b_supply_rate)
    : geometry_(geometry),
      aBuffer_(kStreamBufferDepth, a_supply_rate),
      bBuffer_(kStreamBufferDepth, b_supply_rate)
{
    const std::size_t n = geometry_.dim;
    PROSE_ASSERT(n > 0, "zero-size systolic array");
    acc_.assign(n * n, 0.0f);
    aReg_.value.assign(n * n, 0.0f);
    aReg_.valid.assign(n * n, 0);
    bReg_.value.assign(n * n, 0.0f);
    bReg_.valid.assign(n * n, 0);
}

SystolicArray::EngineState
SystolicArray::captureState() const
{
    return EngineState{ acc_,
                        liveRows_,
                        liveCols_,
                        aBuffer_.state(),
                        bBuffer_.state(),
                        matmulCycles_,
                        simdCycles_,
                        stallCycles_,
                        macCount_,
                        simdOpCount_ };
}

void
SystolicArray::restoreState(const EngineState &state)
{
    acc_ = state.acc;
    liveRows_ = state.liveRows;
    liveCols_ = state.liveCols;
    aBuffer_.restore(state.aBuf);
    bBuffer_.restore(state.bBuf);
    matmulCycles_ = state.matmulCycles;
    simdCycles_ = state.simdCycles;
    stallCycles_ = state.stallCycles;
    macCount_ = state.macCount;
    simdOpCount_ = state.simdOpCount;
}

void
SystolicArray::assertEnginesAgree(const char *what,
                                  const EngineState &stepped,
                                  const EngineState &fast,
                                  std::uint64_t stepped_ret,
                                  std::uint64_t fast_ret) const
{
    const std::size_t n = geometry_.dim;
    if (stepped_ret != fast_ret) {
        panic("validate(", what, "): cycle returns diverge: stepped=",
              stepped_ret, " fast=", fast_ret);
    }
    if (stepped.liveRows != fast.liveRows ||
        stepped.liveCols != fast.liveCols) {
        panic("validate(", what, "): live regions diverge: stepped=",
              stepped.liveRows, "x", stepped.liveCols,
              " fast=", fast.liveRows, "x", fast.liveCols);
    }
    const struct
    {
        const char *name;
        std::uint64_t steppedVal, fastVal;
    } counters[] = {
        { "matmulCycles", stepped.matmulCycles, fast.matmulCycles },
        { "simdCycles", stepped.simdCycles, fast.simdCycles },
        { "stallCycles", stepped.stallCycles, fast.stallCycles },
        { "macCount", stepped.macCount, fast.macCount },
        { "simdOpCount", stepped.simdOpCount, fast.simdOpCount },
        { "aBuffer stalls", stepped.aBuf.stalls, fast.aBuf.stalls },
        { "aBuffer consumed", stepped.aBuf.consumed,
          fast.aBuf.consumed },
        { "aBuffer fillTicks", stepped.aBuf.fillTicks,
          fast.aBuf.fillTicks },
        { "bBuffer stalls", stepped.bBuf.stalls, fast.bBuf.stalls },
        { "bBuffer consumed", stepped.bBuf.consumed,
          fast.bBuf.consumed },
        { "bBuffer fillTicks", stepped.bBuf.fillTicks,
          fast.bBuf.fillTicks },
    };
    for (const auto &c : counters) {
        if (c.steppedVal != c.fastVal) {
            panic("validate(", what, "): ", c.name,
                  " diverges: stepped=", c.steppedVal,
                  " fast=", c.fastVal);
        }
    }
    if (!bitsEqual(stepped.aBuf.occupancy, fast.aBuf.occupancy) ||
        !bitsEqual(stepped.bBuf.occupancy, fast.bBuf.occupancy)) {
        panic("validate(", what, "): buffer occupancy diverges: a ",
              stepped.aBuf.occupancy, " vs ", fast.aBuf.occupancy,
              ", b ", stepped.bBuf.occupancy, " vs ",
              fast.bBuf.occupancy);
    }
    if (!bitsEqual(stepped.acc.data(), fast.acc.data(),
                   stepped.acc.size())) {
        for (std::size_t idx = 0; idx < stepped.acc.size(); ++idx) {
            if (!bitsEqual(stepped.acc[idx], fast.acc[idx])) {
                panic("validate(", what, "): accumulator (", idx / n,
                      ",", idx % n, ") diverges: stepped=",
                      stepped.acc[idx], " fast=", fast.acc[idx]);
            }
        }
    }
}

template <typename SteppedFn, typename FastFn>
std::uint64_t
SystolicArray::dispatch(const char *what, SteppedFn stepped, FastFn fast)
{
    switch (mode_) {
      case FsimMode::Stepped:
        return stepped();
      case FsimMode::Fast:
        return fast();
      case FsimMode::Validate:
        break;
    }
    const EngineState pre = captureState();
    const std::uint64_t fast_ret = fast();
    const EngineState fast_post = captureState();
    restoreState(pre);
    const std::uint64_t stepped_ret = stepped();
    assertEnginesAgree(what, captureState(), fast_post, stepped_ret,
                       fast_ret);
    return stepped_ret;
}

void
SystolicArray::stepMatmulCycle(const TileOperand &a, const TileOperand &b,
                               std::uint64_t wavefront, std::size_t k_depth)
{
    const std::size_t n = geometry_.dim;
    const std::size_t rows = a.rows;
    const std::size_t cols = b.cols;

    // Shift the A registers east: PE(i, j) latches what PE(i, j-1) held.
    for (std::size_t i = 0; i < n; ++i) {
        float *vrow = aReg_.value.data() + i * n;
        std::uint8_t *frow = aReg_.valid.data() + i * n;
        for (std::size_t j = n; j-- > 1;) {
            vrow[j] = vrow[j - 1];
            frow[j] = frow[j - 1];
        }
        // West-edge injection, skewed by row index (delay slots). The
        // edge latch quantizes the incoming fp32 element to bf16.
        const std::int64_t k = static_cast<std::int64_t>(wavefront) -
                               static_cast<std::int64_t>(i);
        if (i < rows && k >= 0 &&
            k < static_cast<std::int64_t>(k_depth)) {
            vrow[0] = quantizeBf16(
                a.fp32[i * a.fp32Stride + static_cast<std::size_t>(k)]);
            frow[0] = 1;
        } else {
            vrow[0] = 0.0f;
            frow[0] = 0;
        }
    }

    // Shift the B registers south: PE(i, j) latches what PE(i-1, j) held.
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = n; i-- > 1;) {
            bReg_.value[i * n + j] = bReg_.value[(i - 1) * n + j];
            bReg_.valid[i * n + j] = bReg_.valid[(i - 1) * n + j];
        }
        const std::int64_t k = static_cast<std::int64_t>(wavefront) -
                               static_cast<std::int64_t>(j);
        if (j < cols && k >= 0 &&
            k < static_cast<std::int64_t>(k_depth)) {
            bReg_.value[j] = quantizeBf16(
                b.fp32[static_cast<std::size_t>(k) * b.fp32Stride + j]);
            bReg_.valid[j] = 1;
        } else {
            bReg_.value[j] = 0.0f;
            bReg_.valid[j] = 0;
        }
    }

    // Every PE with two freshly-latched valid operands performs a MAC.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t idx = i * n + j;
            if (aReg_.valid[idx] && bReg_.valid[idx]) {
                acc_[idx] += aReg_.value[idx] * bReg_.value[idx];
                ++macCount_;
            }
        }
    }
}

std::uint64_t
SystolicArray::matmulTile(const TileOperand &a, const TileOperand &b)
{
    const std::size_t n = geometry_.dim;
    const std::size_t rows = a.rows;
    const std::size_t cols = b.cols;
    const std::size_t k_depth = a.cols;
    PROSE_ASSERT(rows > 0 && cols > 0 && k_depth > 0,
                 "empty matmul tile");
    PROSE_ASSERT(rows <= n && cols <= n,
                 "tile exceeds the array: ", rows, "x", cols,
                 " on ", n, "x", n);
    PROSE_ASSERT(b.rows == k_depth, "tile inner-dimension mismatch");

    const std::uint64_t cycles = dispatch(
        "matmulTile", [&] { return steppedMatmulTile(a, b); },
        [&] { return fastMatmulTile(a, b); });
    // Faults land on the finished tile, never mid-wavefront: there is
    // no scratchpad, so the accumulators are the only state a fault can
    // reach before the SIMD passes read them. Corrupting once here, on
    // whichever engine ran (Validate: after both agreed on the clean
    // tile), advances the injector RNG exactly once per tile in
    // schedule order — the replay contract (docs/FAULT_MODEL.md).
    if (injector_) {
        injector_->corruptAccumulators(faultSite_, acc_.data(), n,
                                       liveRows_, liveCols_);
    }
    return cycles;
}

std::uint64_t
SystolicArray::matmulTile(const Matrix &a, const Matrix &b)
{
    // Quantize into per-thread scratch once, widened back to
    // fp32 as runFused does for whole operands (quantizeRoundtripRow is
    // widen(roundFromFloat(x)), exactly), then run the zero-copy view
    // path. External callers (tests, the DSE micro kernels) keep the
    // Matrix interface; the fused fsim pipeline builds its views itself.
    const kernels::KernelSet &ks = kernels::activeKernels();
    static thread_local ScratchBuffer<float> wa_scratch, wb_scratch;
    float *wa = wa_scratch.get(a.size());
    ks.quantizeRoundtripRow(wa, a.data(), a.size());
    float *wb = wb_scratch.get(b.size());
    ks.quantizeRoundtripRow(wb, b.data(), b.size());
    const TileOperand ta{ a.data(), a.cols(), wa,
                          a.cols(), a.rows(), a.cols() };
    const TileOperand tb{ b.data(), b.cols(), wb,
                          b.cols(), b.rows(), b.cols() };
    return matmulTile(ta, tb);
}

std::uint64_t
SystolicArray::steppedMatmulTile(const TileOperand &a, const TileOperand &b)
{
    const std::size_t rows = a.rows;
    const std::size_t cols = b.cols;
    const std::size_t k_depth = a.cols;

    liveRows_ = std::max(liveRows_, rows);
    liveCols_ = std::max(liveCols_, cols);

    // Clear stale wavefront state from a previous tile.
    std::fill(aReg_.valid.begin(), aReg_.valid.end(), 0);
    std::fill(bReg_.valid.begin(), bReg_.valid.end(), 0);

    // Injections last k + edge - 1 wavefronts per side; the full product
    // finishes after k + rows + cols - 2 advances.
    const std::uint64_t advances = k_depth + rows + cols - 2;
    const std::uint64_t a_inject_end = k_depth + rows - 1;
    const std::uint64_t b_inject_end = k_depth + cols - 1;

    std::uint64_t cycles = 0;
    std::uint64_t wavefront = 0;
    while (wavefront < advances) {
        ++cycles;
        aBuffer_.fillTick();
        bBuffer_.fillTick();
        const bool need_a = wavefront < a_inject_end;
        const bool need_b = wavefront < b_inject_end;
        if ((need_a && !aBuffer_.available()) ||
            (need_b && !bBuffer_.available())) {
            // Either edge starving freezes the whole wavefront.
            if (need_a && !aBuffer_.available())
                aBuffer_.noteStall();
            if (need_b && !bBuffer_.available())
                bBuffer_.noteStall();
            ++stallCycles_;
            continue;
        }
        if (need_a)
            aBuffer_.consume();
        if (need_b)
            bBuffer_.consume();
        stepMatmulCycle(a, b, wavefront, k_depth);
        ++wavefront;
    }
    matmulCycles_ += cycles;
    return cycles;
}

std::uint64_t
SystolicArray::fastMatmulTile(const TileOperand &a, const TileOperand &b)
{
    const std::size_t n = geometry_.dim;
    const std::size_t rows = a.rows;
    const std::size_t cols = b.cols;
    const std::size_t k_depth = a.cols;

    liveRows_ = std::max(liveRows_, rows);
    liveCols_ = std::max(liveCols_, cols);

    // PE(i, j) latches A(i, k') and B(k', j) together at wavefront
    // k' + i + j, so its MACs execute in ascending-k' order — the GEMM
    // microkernel performs the identical sequence of fp32 operations
    // per accumulator (it vectorizes across independent j lanes only),
    // streaming the widened planes with no per-tile copy. wide == what
    // the stepped edge latch computes, by the TileOperand invariant.
    // The depth is blocked so the live B panel (kb * cols * 4 B =
    // 32 KiB) stays L1-resident across the core's row groups; ascending
    // kb preserves the per-accumulator ascending-k' MAC order exactly.
    PROSE_ASSERT(a.wide && b.wide,
                 "the fast engine needs widened operand planes");
    const kernels::KernelSet &ks = kernels::activeKernels();
    const std::size_t kb_step =
        std::max<std::size_t>(64, (32 * 1024 / sizeof(float)) /
                                      std::max<std::size_t>(cols, 1));
    for (std::size_t kb = 0; kb < k_depth; kb += kb_step) {
        const std::size_t kd = std::min(kb_step, k_depth - kb);
        ks.gemmTileF32(acc_.data(), n, a.wide + kb, a.wideStride,
                       b.wide + kb * b.wideStride, b.wideStride, rows,
                       cols, kd);
    }
    macCount_ += static_cast<std::uint64_t>(rows) * cols * k_depth;

    return fastForwardMatmulGating(rows, cols, k_depth);
}

std::uint64_t
SystolicArray::fastForwardMatmulGating(std::size_t rows,
                                       std::size_t cols,
                                       std::size_t k_depth)
{
    const std::uint64_t advances = k_depth + rows + cols - 2;
    const std::uint64_t a_inject_end = k_depth + rows - 1;
    const std::uint64_t b_inject_end = k_depth + cols - 1;

    if (aBuffer_.idealSupply() && bBuffer_.idealSupply()) {
        // Availability can never fail, so every cycle advances the
        // wavefront: `advances` cycles, zero stalls, and each side
        // consumes one entry for each of its injection wavefronts.
        aBuffer_.fastForwardIdeal(advances, a_inject_end);
        bBuffer_.fastForwardIdeal(advances, b_inject_end);
        matmulCycles_ += advances;
        return advances;
    }

    // Sub-capacity fill: replay only the O(1)-per-cycle gate
    // recurrence. The repeated clamped additions are not associative in
    // floating point, so an occupancy = o0 + t * rate closed form would
    // not be bit-equal; replaying the identical sequence of occupancy
    // operations is. The O(dim^2) PE sweep — where virtually all the
    // stepped engine's time goes — is still skipped.
    std::uint64_t cycles = 0;
    std::uint64_t wavefront = 0;
    while (wavefront < advances) {
        ++cycles;
        aBuffer_.fillTick();
        bBuffer_.fillTick();
        const bool need_a = wavefront < a_inject_end;
        const bool need_b = wavefront < b_inject_end;
        if ((need_a && !aBuffer_.available()) ||
            (need_b && !bBuffer_.available())) {
            if (need_a && !aBuffer_.available())
                aBuffer_.noteStall();
            if (need_b && !bBuffer_.available())
                bBuffer_.noteStall();
            ++stallCycles_;
            continue;
        }
        if (need_a)
            aBuffer_.consume();
        if (need_b)
            bBuffer_.consume();
        ++wavefront;
    }
    matmulCycles_ += cycles;
    return cycles;
}

float
SystolicArray::applyAlu(SimdOp op, float acc_value, float operand) const
{
    // SIMD inputs read the accumulator's top 16 bits (truncation).
    const float x = truncateBf16(acc_value);
    switch (op) {
      case SimdOp::MulScalar:
      case SimdOp::MulVector:
        return quantizeBf16(x * quantizeBf16(operand));
      case SimdOp::AddScalar:
      case SimdOp::AddVector:
        return quantizeBf16(x + quantizeBf16(operand));
      case SimdOp::Gelu:
        PROSE_ASSERT(geometry_.hasGelu,
                     "GELU issued to an array without GELU LUTs (",
                     geometry_.describe(), ")");
        return geluLut().lookup(truncateToBf16(acc_value)).toFloat();
      case SimdOp::Exp:
        PROSE_ASSERT(geometry_.hasExp,
                     "Exp issued to an array without Exp LUTs (",
                     geometry_.describe(), ")");
        return expLut().lookup(truncateToBf16(acc_value)).toFloat();
    }
    panic("unreachable SIMD op");
}

void
SystolicArray::rotateLeft(const std::vector<float> &results)
{
    const std::size_t n = geometry_.dim;
    for (std::size_t i = 0; i < liveRows_; ++i) {
        float *row = acc_.data() + i * n;
        for (std::size_t j = 0; j + 1 < liveCols_; ++j)
            row[j] = row[j + 1];
        row[liveCols_ - 1] = results[i];
    }
}

std::uint64_t
SystolicArray::simdScalar(SimdOp op, float scalar)
{
    PROSE_ASSERT(op == SimdOp::MulScalar || op == SimdOp::AddScalar,
                 "simdScalar needs a scalar op");
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0,
                 "SIMD pass with no live tile");
    return dispatch(
        "simdScalar", [&] { return steppedSimdScalar(op, scalar); },
        [&] { return fastSimdScalar(op, scalar); });
}

std::uint64_t
SystolicArray::steppedSimdScalar(SimdOp op, float scalar)
{
    const std::size_t n = geometry_.dim;
    std::vector<float> results(liveRows_);
    for (std::size_t pass = 0; pass < liveCols_; ++pass) {
        for (std::size_t i = 0; i < liveRows_; ++i) {
            results[i] = applyAlu(op, acc_[i * n], scalar);
            ++simdOpCount_;
        }
        rotateLeft(results);
        ++simdCycles_;
    }
    return liveCols_;
}

std::uint64_t
SystolicArray::fastSimdScalar(SimdOp op, float scalar)
{
    // A full rotation returns the tile to its original orientation and
    // feeds every live element through the ALU exactly once, so the
    // pass is an in-place elementwise map on the SIMD-row kernels. The
    // broadcast operand's bf16 quantization is hoisted out of the loop
    // — the ALU quantizes the same scalar to the same bits every cycle.
    const std::size_t n = geometry_.dim;
    const kernels::KernelSet &ks = kernels::activeKernels();
    const float q = quantizeBf16(scalar);
    for (std::size_t i = 0; i < liveRows_; ++i) {
        float *row = acc_.data() + i * n;
        if (op == SimdOp::MulScalar)
            ks.simdMulScalarRow(row, q, liveCols_);
        else
            ks.simdAddScalarRow(row, q, liveCols_);
    }
    simdOpCount_ += static_cast<std::uint64_t>(liveRows_) * liveCols_;
    simdCycles_ += liveCols_;
    return liveCols_;
}

std::uint64_t
SystolicArray::simdVector(SimdOp op, const TileSpan &operand)
{
    PROSE_ASSERT(op == SimdOp::MulVector || op == SimdOp::AddVector,
                 "simdVector needs a vector op");
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0,
                 "SIMD pass with no live tile");
    PROSE_ASSERT((operand.broadcastRow || operand.rows >= liveRows_) &&
                     operand.cols >= liveCols_,
                 "vector operand smaller than the live tile");
    return dispatch(
        "simdVector", [&] { return steppedSimdVector(op, operand); },
        [&] { return fastSimdVector(op, operand); });
}

std::uint64_t
SystolicArray::simdVector(SimdOp op, const Matrix &operand)
{
    return simdVector(op, TileSpan{ operand.data(), operand.cols(),
                                    operand.rows(), operand.cols(),
                                    false });
}

std::uint64_t
SystolicArray::steppedSimdVector(SimdOp op, const TileSpan &operand)
{
    const std::size_t n = geometry_.dim;
    std::vector<float> results(liveRows_);
    std::uint64_t cycles = 0;
    std::size_t pass = 0;
    while (pass < liveCols_) {
        ++cycles;
        ++simdCycles_;
        // The vector register streams one operand column per pass
        // through the west-edge path; starving it stalls the rotation.
        aBuffer_.fillTick();
        if (!aBuffer_.available()) {
            aBuffer_.noteStall();
            ++stallCycles_;
            continue;
        }
        aBuffer_.consume();
        for (std::size_t i = 0; i < liveRows_; ++i) {
            // Column 0 of the rotated tile is original column `pass`.
            results[i] =
                applyAlu(op, acc_[i * n], spanAt(operand, i, pass));
            ++simdOpCount_;
        }
        rotateLeft(results);
        ++pass;
    }
    return cycles;
}

std::uint64_t
SystolicArray::fastSimdVector(SimdOp op, const TileSpan &operand)
{
    // The rotated tile's column 0 during pass j is original column j,
    // so the in-place map pairs element (i, j) with operand(i, j); each
    // accumulator row runs on the SIMD vector-row kernel against the
    // matching operand row (row 0 throughout when broadcasting).
    const std::size_t n = geometry_.dim;
    const kernels::KernelSet &ks = kernels::activeKernels();
    for (std::size_t i = 0; i < liveRows_; ++i) {
        float *row = acc_.data() + i * n;
        const float *vrow =
            operand.data +
            (operand.broadcastRow ? 0 : i) * operand.stride;
        if (op == SimdOp::MulVector)
            ks.simdMulVectorRow(row, vrow, liveCols_);
        else
            ks.simdAddVectorRow(row, vrow, liveCols_);
    }
    simdOpCount_ += static_cast<std::uint64_t>(liveRows_) * liveCols_;

    if (aBuffer_.idealSupply()) {
        // One operand column consumed per pass, never starving.
        aBuffer_.fastForwardIdeal(liveCols_, liveCols_);
        simdCycles_ += liveCols_;
        return liveCols_;
    }

    // Gate replay for the streamed operand columns (see
    // fastForwardMatmulGating for why this is a replay, not a formula).
    std::uint64_t cycles = 0;
    std::size_t pass = 0;
    while (pass < liveCols_) {
        ++cycles;
        ++simdCycles_;
        aBuffer_.fillTick();
        if (!aBuffer_.available()) {
            aBuffer_.noteStall();
            ++stallCycles_;
            continue;
        }
        aBuffer_.consume();
        ++pass;
    }
    return cycles;
}

std::uint64_t
SystolicArray::simdSpecial(SimdOp op)
{
    PROSE_ASSERT(op == SimdOp::Gelu || op == SimdOp::Exp,
                 "simdSpecial needs a special-function op");
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0,
                 "SIMD pass with no live tile");
    return dispatch(
        "simdSpecial", [&] { return steppedSimdSpecial(op); },
        [&] { return fastSimdSpecial(op); });
}

std::uint64_t
SystolicArray::steppedSimdSpecial(SimdOp op)
{
    const std::size_t n = geometry_.dim;
    std::vector<float> results(liveRows_);
    for (std::size_t pass = 0; pass < liveCols_; ++pass) {
        for (std::size_t i = 0; i < liveRows_; ++i) {
            results[i] = applyAlu(op, acc_[i * n], 0.0f);
            ++simdOpCount_;
        }
        rotateLeft(results);
        ++simdCycles_;
    }
    return liveCols_;
}

std::uint64_t
SystolicArray::fastSimdSpecial(SimdOp op)
{
    PROSE_ASSERT(op != SimdOp::Gelu || geometry_.hasGelu,
                 "GELU issued to an array without GELU LUTs (",
                 geometry_.describe(), ")");
    PROSE_ASSERT(op != SimdOp::Exp || geometry_.hasExp,
                 "Exp issued to an array without Exp LUTs (",
                 geometry_.describe(), ")");
    const std::size_t n = geometry_.dim;
    const std::uint32_t *table =
        (op == SimdOp::Gelu ? geluLut() : expLut()).flatFloatBits().data();
    const kernels::KernelSet &ks = kernels::activeKernels();
    for (std::size_t i = 0; i < liveRows_; ++i)
        ks.lutRow(acc_.data() + i * n, table, liveCols_);
    simdOpCount_ += static_cast<std::uint64_t>(liveRows_) * liveCols_;
    simdCycles_ += liveCols_;
    return liveCols_;
}

std::uint64_t
SystolicArray::drainTo(float *dst, std::size_t stride)
{
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0, "drain with no live tile");
    const std::size_t n = geometry_.dim;
    // One column exits through the OUTPUT port per cycle; the port taps
    // accumulator bits [31:16] (truncation to bf16). This is already
    // closed form — one pass over the live region — so both execution
    // engines share it. The sweep runs row-wise on the truncate kernel;
    // each element is an independent bit-mask, so the traversal order
    // is immaterial to the values, and the cycle count stays one per
    // live column.
    const kernels::KernelSet &ks = kernels::activeKernels();
    for (std::size_t i = 0; i < liveRows_; ++i)
        ks.truncateRow(dst + i * stride, acc_.data() + i * n, liveCols_);
    simdCycles_ += liveCols_;
    const std::uint64_t cycles = liveCols_;
    clearAccumulators();
    return cycles;
}

std::uint64_t
SystolicArray::drain(Matrix &out)
{
    PROSE_ASSERT(liveRows_ > 0 && liveCols_ > 0, "drain with no live tile");
    out = Matrix(liveRows_, liveCols_);
    return drainTo(out.data(), out.cols());
}

void
SystolicArray::clearAccumulators()
{
    std::fill(acc_.begin(), acc_.end(), 0.0f);
    liveRows_ = 0;
    liveCols_ = 0;
}

void
SystolicArray::overwriteAccumulator(std::size_t row, std::size_t col,
                                    float value)
{
    PROSE_ASSERT(row < liveRows_ && col < liveCols_,
                 "accumulator repair outside the live region: ", row,
                 ",", col);
    acc_[row * geometry_.dim + col] = value;
}

void
SystolicArray::absorbStats(const SystolicArray &other)
{
    matmulCycles_ += other.matmulCycles_;
    simdCycles_ += other.simdCycles_;
    stallCycles_ += other.stallCycles_;
    macCount_ += other.macCount_;
    simdOpCount_ += other.simdOpCount_;
}

void
SystolicArray::setFaultInjector(FaultInjector *injector,
                                std::string site_id)
{
    injector_ = injector;
    faultSite_ = std::move(site_id);
}

double
SystolicArray::elapsedSeconds() const
{
    return static_cast<double>(matmulCycles_) / kMatmulClockHz +
           static_cast<double>(simdCycles_) / kSimdClockHz;
}

} // namespace prose
