/**
 * @file
 * Algorithm-based fault tolerance (ABFT) for the output-stationary
 * matmul, after Huang & Abraham (1984). For a tile product C = A x B the
 * checker recomputes, in double precision over the same bf16-quantized
 * operands the array saw, the row checksums (each row of C must sum to
 * a(r,:) . colsum(B)) and column checksums (each column must sum to
 * rowsum(A) . b(:,c)). A corrupted accumulator shows up as one bad row
 * sum and one bad column sum, whose intersection *locates* the faulty
 * PE; the row checksum residual then *corrects* the cell.
 *
 * Floating-point checksums need a tolerance: the array accumulates in
 * fp32 while the checksums use double, so residuals up to about
 * k * eps_f32 of the row/column absolute mass are legitimate rounding.
 * The threshold scales with that absolute mass, leaving orders of
 * magnitude between rounding noise (~1e-7 relative) and the smallest
 * architecturally visible flip (bf16-mantissa LSB, 2^-7 relative to one
 * term). Flips below accumulator bit 16 are masked by the truncating
 * reads of the real hardware and are out of scope by design.
 *
 * One checksum core serves every caller. It reads the operands as
 * bf16-quantized fp32 planes (AbftPlane) — the functional simulator
 * hands in the widened planes its fused pipeline already holds — and
 * the live accumulators through a read-only strided view. Each
 * operand's checksum vectors depend on that operand alone, so they are
 * summed apart from the tile (AbftSums): a caller checking many tiles
 * sums each A row block and each B panel once.
 *
 * Every checksum is one of the kernel layer's two double-accumulating
 * reductions (kernels::KernelSet::columnSumsF64 and rowSumsF64). Each
 * output sums its terms in ascending index order on every SIMD tier,
 * so verdicts, located cells and repaired bits do not depend on the
 * tier. The checker's work arrays are per-thread scratch: checking a
 * clean tile allocates nothing.
 */

#ifndef PROSE_FAULT_ABFT_HH
#define PROSE_FAULT_ABFT_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace prose {

/** ABFT configuration (FunctionalSimulator::setAbft). */
struct AbftOptions
{
    bool enabled = false;
};

/**
 * Row-major read-only view of one fp32 plane: data[r*stride + c] is
 * element (r, c). An operand plane's elements are already
 * bf16-quantized (the values the array multiplied); an accumulator
 * view holds the live fp32 accumulators.
 */
struct AbftPlane
{
    const float *data;
    std::size_t stride; ///< row stride, in elements
    std::size_t rows;
    std::size_t cols;
};

/**
 * One operand's checksum vectors along the depth index kk, in double:
 * k sums and k absolute sums, views into the caller's storage.
 */
struct AbftSums
{
    const double *sum;
    const double *absSum;
};

/**
 * The sums of a quantized B panel (k x cols), across each row:
 * sum[kk] = sum_j b(kk, j) and absSum[kk] = sum_j |b(kk, j)|, ascending
 * j. `out` holds 2 * b.rows doubles; the result views it.
 */
AbftSums abftPanelSums(const AbftPlane &b, double *out);

/**
 * The sums of a quantized A row block (rows x k), down each column:
 * sum[kk] = sum_i a(i, kk) and absSum[kk] = sum_i |a(i, kk)|, ascending
 * i. `out` holds 2 * a.cols doubles; the result views it.
 */
AbftSums abftRowBlockSums(const AbftPlane &a, double *out);

/** Verdict for one checked tile. */
struct AbftTileResult
{
    bool flagged = false; ///< any checksum mismatch
    std::vector<std::size_t> suspectRows;
    std::vector<std::size_t> suspectCols;
    /** Row x column intersection: the located accumulators. */
    std::vector<std::pair<std::size_t, std::size_t>> located;
    /** Cells to repair (subset of `located`). */
    std::vector<std::pair<std::size_t, std::size_t>> corrected;
    /** The rebuilt fp32 value of each `corrected` cell, in order. */
    std::vector<float> repairs;
};

/** Detection-coverage accounting across a whole run. */
struct AbftStats
{
    std::uint64_t tilesChecked = 0;
    std::uint64_t tilesFlagged = 0;
    /** Accumulators pinpointed to a unique (row, col). */
    std::uint64_t locatedElements = 0;
    /** Candidate cells in tiles whose evidence stayed ambiguous. */
    std::uint64_t ambiguousElements = 0;
    std::uint64_t correctedElements = 0;
    /** Flagged tiles where row/col evidence did not intersect. */
    std::uint64_t unlocatedTiles = 0;

    /** Located faults per flagged tile-error; 1.0 when every flagged
     *  tile pinpointed its faulty accumulators. */
    double locateRate() const
    {
        return tilesFlagged > 0
                   ? static_cast<double>(tilesFlagged - unlocatedTiles) /
                         static_cast<double>(tilesFlagged)
                   : 1.0;
    }
};

/** Stateful checker: per-tile verdicts plus run-level coverage stats. */
class AbftChecker
{
  public:
    const AbftStats &stats() const { return stats_; }
    void resetStats() { stats_ = AbftStats{}; }

    /**
     * Check one tile. `acc` views the live accumulator region
     * (rows x cols fp32) produced by streaming the full k depth of `a`
     * (rows x k) against `b` (k x cols); it is only read. Both operand
     * planes hold quantized values, with `a_sums` ==
     * abftRowBlockSums(a) and `b_sums` == abftPanelSums(b). The verdict
     * lists each repaired cell and its rebuilt value; writing them back
     * is the caller's.
     */
    AbftTileResult checkTile(const AbftPlane &a, const AbftSums &a_sums,
                             const AbftPlane &b, const AbftSums &b_sums,
                             const AbftPlane &acc);

  private:
    AbftStats stats_;
};

} // namespace prose

#endif // PROSE_FAULT_ABFT_HH
