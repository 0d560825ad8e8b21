#include "matrix.hh"

#include <cmath>

#include "bfloat16.hh"
#include "common/logging.hh"
#include "common/scratch.hh"
#include "common/thread_pool.hh"
#include "kernels/kernel_dispatch.hh"

namespace prose {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
{
}

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

float &
Matrix::at(std::size_t r, std::size_t c)
{
    PROSE_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

float
Matrix::at(std::size_t r, std::size_t c) const
{
    PROSE_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

void
Matrix::fillGaussian(Rng &rng, float mean, float stddev)
{
    for (float &x : data_)
        x = static_cast<float>(rng.gaussian(mean, stddev));
}

void
Matrix::quantizeBf16InPlace()
{
    kernels::activeKernels().quantizeRoundtripRow(
        data_.data(), data_.data(), data_.size());
}

float
Matrix::maxAbsDiff(const Matrix &a, const Matrix &b)
{
    PROSE_ASSERT(a.sameShape(b), "maxAbsDiff shape mismatch");
    float worst = 0.0f;
    for (std::size_t i = 0; i < a.data_.size(); ++i)
        worst = std::max(worst, std::fabs(a.data_[i] - b.data_[i]));
    return worst;
}

namespace {

/** B-block of the cache-blocked kernel: kKBlock x kJBlock floats
 *  (32 KiB) stays L1-resident while a chunk's row blocks stream over
 *  it — the register-tiled GEMM core re-reads the B block once per
 *  6-row group, so it must sit in the nearest cache, not L2. kKBlock
 *  is also the k-panel depth of a packed bf16 B operand (packBf16). */
constexpr std::size_t kKBlock = 128;
constexpr std::size_t kJBlock = 64;

/**
 * Minimum MACs *per pool lane* before parallel dispatch pays for
 * itself. The floor is not about wakeup latency (that is microseconds)
 * but about the shared memory system: every lane re-streams the whole
 * B operand, so small and mid-size pooled GEMMs contend for the same
 * cache/bandwidth that one lane would have to itself. The committed
 * bench/perf_regression matmul_cutoff_* crossover record bears that
 * out — the pooled side's only win (n256, 2^22 MACs/lane on the fixed
 * 4-lane pool) is a ~5% edge inside runner noise, while
 * matmul_fp32_pooled_len128_b1 (128x768x768, ~18.9M MACs/lane on four
 * lanes) recorded an outright loss to its serial twin. The floor
 * therefore sits above that losing shape: 2^25 MACs/lane (~2.5 ms of
 * single-lane SIMD work) keeps b1/len128-class GEMMs inline and only
 * fans out work large enough for the split to survive the contention.
 */
constexpr std::size_t kMinMacsPerLane = std::size_t{ 1 } << 25;

/** True when `macs` of matmul work should fan out to the pool. */
bool
shouldPool(std::size_t macs)
{
    const unsigned lanes = ThreadPool::global().parallelism();
    if (lanes <= 1)
        return false;
    return macs >= kMinMacsPerLane * lanes;
}

/**
 * Rows [r0, r1) of C += A x B, blocked over k and j for cache reuse and
 * handed to the dispatched register-tiled GEMM kernel per (k, j) block.
 * Every output element accumulates its k terms in ascending k order —
 * the same sequence as the classic serial i-k-j kernel — so the result
 * is bit-identical regardless of blocking or which thread owns the
 * rows. The kernel MACs every term unconditionally; that is exact even
 * for zero A entries against finite B (C accumulators are never -0 —
 * they start at +0 and +0 + -0 == +0 — so adding a +-0 product is a
 * bitwise no-op), and for non-finite B it is exactly what the
 * unskipped reference loop did (0 * Inf must make NaN). SIMD applies
 * across independent output lanes only; the per-element op sequence is
 * untouched.
 */
void
matmulRows(const Matrix &a, const Matrix &b, Matrix &c, std::size_t r0,
           std::size_t r1)
{
    const kernels::KernelSet &ks = kernels::activeKernels();
    const std::size_t depth = a.cols();
    const std::size_t n = b.cols();
    for (std::size_t kb = 0; kb < depth; kb += kKBlock) {
        const std::size_t k_end = std::min(depth, kb + kKBlock);
        for (std::size_t jb = 0; jb < n; jb += kJBlock) {
            const std::size_t j_end = std::min(n, jb + kJBlock);
            ks.gemmTileF32(c.row(r0) + jb, n, a.row(r0) + kb, depth,
                           b.row(kb) + jb, n, r1 - r0, j_end - jb,
                           k_end - kb);
        }
    }
}

/**
 * Quantize the rows x cols row-major fp32 plane `src` to bf16 bits in
 * the packed order gemmTileBf16 reads B in: kKBlock-deep k panels one
 * after another, each panel's kBf16ChunkCols-column chunks one after
 * another, and each chunk a depth x live block with row stride live
 * (panel kb starts at dst + kb * cols, chunk jb at panel + jb * depth).
 * The bits are exactly quantizeBitsRow's; only their order differs
 * from row-major.
 */
void
packBf16(std::uint16_t *dst, const float *src, std::size_t rows,
         std::size_t cols)
{
    const kernels::KernelSet &ks = kernels::activeKernels();
    constexpr std::size_t kChunk = kernels::kBf16ChunkCols;
    if (cols <= kChunk) {
        // One chunk per panel: the packed order is the row-major order.
        ks.quantizeBitsRow(dst, src, rows * cols);
        return;
    }
    // Source rows are read front to back; each row scatters one
    // `live`-wide run into every chunk of its panel.
    for (std::size_t kb = 0; kb < rows; kb += kKBlock) {
        const std::size_t depth = std::min(kKBlock, rows - kb);
        std::uint16_t *panel = dst + kb * cols;
        for (std::size_t k = 0; k < depth; ++k) {
            const float *row = src + (kb + k) * cols;
            for (std::size_t jb = 0; jb < cols; jb += kChunk) {
                const std::size_t live = std::min(kChunk, cols - jb);
                ks.quantizeBitsRow(panel + jb * depth + k * live, row + jb,
                                   live);
            }
        }
    }
}

/**
 * The bits twin of matmulRows: same ascending-k order, but A is a
 * row-major bf16 bit plane, B is packed by packBf16, and the (exact)
 * widening to fp32 happens inside the GEMM tile kernel. One kernel call
 * per kKBlock-deep k panel spans the full output width — the kernel
 * walks the panel's column chunks itself, so each A panel is widened
 * (and its exponent envelope scanned) once instead of once per column
 * block. Panel kb starts at b_packed + kb * n, because every earlier
 * panel is a full kKBlock deep. Bit-identical to running matmulRows on
 * the widened operands, including the unconditional MAC of +-0 A
 * entries (see matmulRows).
 */
void
matmulRowsBits(const std::uint16_t *a_bits, const std::uint16_t *b_packed,
               Matrix &c, std::size_t r0, std::size_t r1,
               std::size_t depth)
{
    const kernels::KernelSet &ks = kernels::activeKernels();
    const std::size_t n = c.cols();
    for (std::size_t kb = 0; kb < depth; kb += kKBlock) {
        const std::size_t k_end = std::min(depth, kb + kKBlock);
        ks.gemmTileBf16(c.row(r0), n, a_bits + r0 * depth + kb, depth,
                        b_packed + kb * n, r1 - r0, n, k_end - kb);
    }
}

/** C = widen(A) x widen(B) over a bf16 bit plane and a packed B,
 *  pooled when big. */
Matrix
matmulBits(const std::uint16_t *a_bits, std::size_t m, std::size_t depth,
           const std::uint16_t *b_packed, std::size_t n)
{
    Matrix c(m, n);
    if (!shouldPool(m * depth * n)) {
        matmulRowsBits(a_bits, b_packed, c, 0, m, depth);
        return c;
    }
    ThreadPool::global().parallelFor(
        m, [&](std::size_t r0, std::size_t r1) {
            matmulRowsBits(a_bits, b_packed, c, r0, r1, depth);
        });
    return c;
}

} // namespace

QuantizedOperand::QuantizedOperand(const Matrix &source)
    : rows_(source.rows()), cols_(source.cols()), packed_(source.size())
{
    packBf16(packed_.data(), source.data(), rows_, cols_);
}

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    PROSE_ASSERT(a.cols() == b.rows(), "matmul inner-dim mismatch: ",
                 a.cols(), " vs ", b.rows());
    Matrix c(a.rows(), b.cols());
    if (!shouldPool(a.rows() * a.cols() * b.cols())) {
        matmulRows(a, b, c, 0, a.rows());
        return c;
    }
    ThreadPool::global().parallelFor(
        a.rows(), [&](std::size_t r0, std::size_t r1) {
            matmulRows(a, b, c, r0, r1);
        });
    return c;
}

Matrix
matmulBf16(const Matrix &a, const Matrix &b)
{
    PROSE_ASSERT(a.cols() == b.rows(), "matmulBf16 inner-dim mismatch");
    // Quantize both operands once up front (what streaming bf16 inputs
    // see) into per-thread scratch — compact bit planes, no heap
    // churn, B straight into packed order — then accumulate in fp32
    // like the 32-bit PE accumulators.
    const kernels::KernelSet &ks = kernels::activeKernels();
    static thread_local ScratchBuffer<std::uint16_t> qa_scratch, qb_scratch;
    std::uint16_t *qa = qa_scratch.get(a.size());
    ks.quantizeBitsRow(qa, a.data(), a.size());
    std::uint16_t *qb = qb_scratch.get(b.size());
    packBf16(qb, b.data(), b.rows(), b.cols());
    return matmulBits(qa, a.rows(), a.cols(), qb, b.cols());
}

Matrix
matmulBf16(const Matrix &a, const QuantizedOperand &b)
{
    PROSE_ASSERT(!b.empty(), "matmulBf16 against an empty cached operand");
    PROSE_ASSERT(a.cols() == b.rows(), "matmulBf16 inner-dim mismatch");
    const kernels::KernelSet &ks = kernels::activeKernels();
    static thread_local ScratchBuffer<std::uint16_t> qa_scratch;
    std::uint16_t *qa = qa_scratch.get(a.size());
    ks.quantizeBitsRow(qa, a.data(), a.size());
    return matmulBits(qa, a.rows(), a.cols(), b.packedBits().data(), b.cols());
}

Matrix
mulAdd(float alpha, const Matrix &a, float beta, const Matrix &b)
{
    PROSE_ASSERT(a.sameShape(b), "mulAdd shape mismatch");
    Matrix c(a.rows(), a.cols());
    const float *ap = a.data();
    const float *bp = b.data();
    float *cp = c.data();
    for (std::size_t i = 0; i < c.size(); ++i)
        cp[i] = alpha * ap[i] + beta * bp[i];
    return c;
}

Matrix
add(const Matrix &a, const Matrix &b)
{
    return mulAdd(1.0f, a, 1.0f, b);
}

Matrix
scale(const Matrix &a, float s)
{
    Matrix c(a.rows(), a.cols());
    const float *ap = a.data();
    float *cp = c.data();
    for (std::size_t i = 0; i < c.size(); ++i)
        cp[i] = ap[i] * s;
    return c;
}

Matrix
transpose(const Matrix &a)
{
    Matrix t(a.cols(), a.rows());
    float *tp = t.data();
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const float *arow = a.row(i);
        for (std::size_t j = 0; j < a.cols(); ++j)
            tp[j * a.rows() + i] = arow[j];
    }
    return t;
}

Matrix
rowSoftmax(const Matrix &a)
{
    Matrix c(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        // Subtract the row max for numerical stability.
        float row_max = a(i, 0);
        for (std::size_t j = 1; j < a.cols(); ++j)
            row_max = std::max(row_max, a(i, j));
        double denom = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j) {
            const float e = std::exp(a(i, j) - row_max);
            c(i, j) = e;
            denom += e;
        }
        const float inv = static_cast<float>(1.0 / denom);
        for (std::size_t j = 0; j < a.cols(); ++j)
            c(i, j) *= inv;
    }
    return c;
}

Matrix
layerNorm(const Matrix &a, const std::vector<float> &gamma,
          const std::vector<float> &beta, float eps)
{
    PROSE_ASSERT(gamma.size() == a.cols() && beta.size() == a.cols(),
                 "layerNorm gain/bias arity mismatch");
    Matrix c(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j)
            sum += a(i, j);
        const double mu = sum / static_cast<double>(a.cols());
        double var = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j) {
            const double d = a(i, j) - mu;
            var += d * d;
        }
        var /= static_cast<double>(a.cols());
        const double inv = 1.0 / std::sqrt(var + eps);
        for (std::size_t j = 0; j < a.cols(); ++j) {
            c(i, j) = static_cast<float>(
                gamma[j] * (a(i, j) - mu) * inv + beta[j]);
        }
    }
    return c;
}

} // namespace prose
