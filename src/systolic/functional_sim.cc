#include "functional_sim.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/scratch.hh"
#include "common/thread_pool.hh"
#include "numerics/bfloat16.hh"
#include "numerics/host_kernels.hh"
#include "numerics/kernels/kernel_dispatch.hh"

namespace prose {

FunctionalSimulator::FunctionalSimulator(ArrayGeometry m_geometry,
                                         ArrayGeometry g_geometry,
                                         ArrayGeometry e_geometry)
    : mArray_(m_geometry), gArray_(g_geometry), eArray_(e_geometry)
{
    PROSE_ASSERT(g_geometry.hasGelu, "G-Type array must carry GELU LUTs");
    PROSE_ASSERT(e_geometry.hasExp, "E-Type array must carry Exp LUTs");
}

void
FunctionalSimulator::setMode(FsimMode mode)
{
    // Fault injection and ABFT both act on the finished tile (after
    // matmulTile, before the SIMD passes), so neither constrains the
    // engine that computed it.
    mArray_.setMode(mode);
    gArray_.setMode(mode);
    eArray_.setMode(mode);
}

Matrix
FunctionalSimulator::runFused(SystolicArray &array, const Matrix &a,
                              const Matrix &b, float alpha,
                              const Matrix *addend, bool apply_special,
                              SimdOp special)
{
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    PROSE_ASSERT(b.rows() == k, "dataflow operand inner-dim mismatch");
    if (addend) {
        const bool broadcast = addend->rows() == 1;
        PROSE_ASSERT(addend->cols() == n &&
                         (broadcast || addend->rows() == m),
                     "dataflow addend shape mismatch");
    }
    const std::size_t s = array.geometry().dim;

    // Quantize each whole operand once into per-thread scratch;
    // every tile below is a zero-copy view into these planes. Before
    // this, A was re-quantized for every column tile and B for every
    // row tile (ceil(n/s) and ceil(m/s) times over), with two Matrix
    // allocations per tile on top.
    const kernels::KernelSet &ks = kernels::activeKernels();
    static thread_local ScratchBuffer<std::uint16_t> qa_scratch, qb_scratch;
    static thread_local ScratchBuffer<float> wa_scratch, wpb_scratch;
    std::uint16_t *qa = qa_scratch.get(a.size());
    ks.quantizeBitsRow(qa, a.data(), a.size());
    std::uint16_t *qb = qb_scratch.get(b.size());
    ks.quantizeBitsRow(qb, b.data(), b.size());

    // Pre-widen the quantized planes back to fp32 (exact: bits << 16)
    // so every tile visit runs on pure fp32 planes instead of
    // re-widening its panels into per-tile scratch — the A panel alone
    // would otherwise be re-widened once per column tile. A is widened
    // in place as one contiguous plane; B is compacted one column panel
    // at a time (below), because the fast engine's GEMM core would
    // otherwise stride through the full row pitch and thrash the DTLB
    // on wide operands. The fast GEMM core and the ABFT checksums
    // consume these. The stepped engine's scalar PE walk reads the fp32
    // operands instead: its tiles are dominated by the O(dim^2) register
    // sweeps anyway.
    float *wa = wa_scratch.get(a.size());
    ks.widenRow(wa, qa, a.size());
    float *wpb = wpb_scratch.get(k * std::min(s, n));

    // Column tiles outer, row tiles inner: the B column panel (k x s)
    // is touched by every row tile, so walking tn in the outer loop
    // reads each panel exactly once while the much smaller A plane
    // (m x k) stays cache-resident across the inner sweep. With row
    // tiles outer, the full B plane — the largest operand in every
    // dataflow — was re-streamed once per row tile. Each C tile is
    // still computed over the full depth in one visit, so the result
    // is bit-identical either way; only the visit order changes.
    Matrix c(m, n);
    for (std::size_t tn = 0; tn < n; tn += s) {
        const std::size_t cols = std::min(s, n - tn);
        // Compact-widen this B column panel once; every row tile below
        // reuses it.
        for (std::size_t r = 0; r < k; ++r)
            ks.widenRow(wpb + r * cols, qb + r * n + tn, cols);
        const TileOperand b_view{ b.data() + tn, n, wpb, cols, k, cols };
        // ABFT's B-only checksum vectors depend on the panel alone:
        // sum them once here rather than once per row tile.
        const AbftPlane b_plane{ wpb, cols, k, cols };
        AbftPanelSums b_sums;
        if (abft_.options().enabled)
            b_sums = abftPanelSums(b_plane);
        for (std::size_t tm = 0; tm < m; tm += s) {
            const std::size_t rows = std::min(s, m - tm);
            const TileOperand a_view{ a.row(tm), k, wa + tm * k, k,
                                      rows,      k };

            // Stream the full-k tile product into the accumulators.
            array.matmulTile(a_view, b_view);

            // ABFT: verify the tile's row/column checksums before any
            // SIMD pass consumes the accumulators; repair located cells
            // through the accumulator write port. The checksums read the
            // widened planes in place: wide == quantizeBf16(x) by the
            // TileOperand invariant, so they see exactly the operands
            // the array multiplied, on any engine.
            if (abft_.options().enabled) {
                Matrix acc = array.accumulators();
                const AbftTileResult verdict = abft_.checkTile(
                    AbftPlane{ wa + tm * k, k, rows, k }, b_plane, b_sums,
                    acc);
                for (const auto &[fix_r, fix_c] : verdict.corrected)
                    array.overwriteAccumulator(fix_r, fix_c,
                                               acc(fix_r, fix_c));
            }

            // Fused MulAdd: MUL pass (broadcast scalar) + ADD pass
            // (vector register streaming the addend tile view).
            array.simdScalar(SimdOp::MulScalar, alpha);
            if (addend) {
                const bool broadcast = addend->rows() == 1;
                const TileSpan addend_view{
                    addend->row(broadcast ? 0 : tm) + tn,
                    addend->cols(), rows, cols, broadcast
                };
                array.simdVector(SimdOp::AddVector, addend_view);
            }
            if (apply_special)
                array.simdSpecial(special);

            // Stream the tile straight into its slot of C.
            array.drainTo(c.row(tm) + tn, n);
        }
    }
    return c;
}

Matrix
FunctionalSimulator::dataflow1(const Matrix &a, const Matrix &b,
                               float alpha, const Matrix *addend)
{
    return runFused(mArray_, a, b, alpha, addend, false,
                    SimdOp::MulScalar);
}

Matrix
FunctionalSimulator::dataflow2(const Matrix &a, const Matrix &b,
                               float alpha, const Matrix *addend)
{
    return runFused(gArray_, a, b, alpha, addend, true, SimdOp::Gelu);
}

std::vector<Matrix>
FunctionalSimulator::dataflow3(const std::vector<Matrix> &q,
                               const std::vector<Matrix> &k,
                               const std::vector<Matrix> &v,
                               float inv_scale)
{
    PROSE_ASSERT(q.size() == k.size() && k.size() == v.size(),
                 "dataflow 3 batch mismatch");
    std::vector<Matrix> context(q.size());
    auto runOne = [&](SystolicArray &array, std::size_t batch) {
        // BMM1 fused with MatDiv (MulScalar by the reciprocal) and Exp,
        // streaming out to the host.
        const Matrix kt = transpose(k[batch]);
        const Matrix exp_scores = runFused(array, q[batch], kt,
                                           inv_scale, nullptr, true,
                                           SimdOp::Exp);

        // Host-side softmax sum/divide (the real host kernel); the
        // normalized probabilities return to the accelerator as bf16.
        Matrix probs = exp_scores;
        hostSoftmaxDivide(probs);

        // BMM2: context = P x V (no fused SIMD op beyond the drain).
        context[batch] = runFused(array, probs, v[batch], 1.0f, nullptr,
                                  false, SimdOp::MulScalar);
    };

    // Batch elements are independent, so the per-cycle PE sweep can run
    // batch-parallel on clone arrays whose counters are folded back in
    // afterwards; with the idealized stream buffers the functional path
    // uses, every clone's cycle count equals its serial-schedule share,
    // so results AND statistics are bit-identical to the serial loop.
    // Fault-injected or ABFT-checked runs stay strictly serial: the
    // injector's corruption sequence and the checker's accounting are
    // order-dependent, and the deterministic replay contract
    // (docs/FAULT_MODEL.md) depends on that order.
    if (eArray_.hasFaultInjector() || abft_.options().enabled ||
        q.size() < 2) {
        for (std::size_t batch = 0; batch < q.size(); ++batch)
            runOne(eArray_, batch);
        return context;
    }
    std::vector<SystolicArray> clones;
    clones.reserve(q.size());
    for (std::size_t batch = 0; batch < q.size(); ++batch) {
        clones.emplace_back(eArray_.geometry());
        // Clones inherit the architectural array's engine so fast /
        // stepped / validate behave identically batch-parallel.
        clones.back().setMode(eArray_.mode());
    }
    ThreadPool::global().parallelFor(
        q.size(), [&](std::size_t b0, std::size_t b1) {
            for (std::size_t batch = b0; batch < b1; ++batch)
                runOne(clones[batch], batch);
        });
    for (const SystolicArray &clone : clones)
        eArray_.absorbStats(clone);
    return context;
}

void
FunctionalSimulator::setFaultInjector(FaultInjector *injector)
{
    mArray_.setFaultInjector(injector, "M0");
    gArray_.setFaultInjector(injector, "G0");
    eArray_.setFaultInjector(injector, "E0");
}

void
FunctionalSimulator::setAbft(AbftOptions options)
{
    abft_ = AbftChecker(options);
}

std::uint64_t
FunctionalSimulator::matmulCycles() const
{
    return mArray_.matmulCycles() + gArray_.matmulCycles() +
           eArray_.matmulCycles();
}

std::uint64_t
FunctionalSimulator::simdCycles() const
{
    return mArray_.simdCycles() + gArray_.simdCycles() +
           eArray_.simdCycles();
}

std::uint64_t
FunctionalSimulator::macCount() const
{
    return mArray_.macCount() + gArray_.macCount() + eArray_.macCount();
}

} // namespace prose
