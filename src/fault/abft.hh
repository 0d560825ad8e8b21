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
 * takes B's column-sum vectors precomputed (AbftPanelSums), so a caller
 * checking many row tiles against one B panel sums the panel once.
 */

#ifndef PROSE_FAULT_ABFT_HH
#define PROSE_FAULT_ABFT_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "numerics/matrix.hh"

namespace prose {

/** ABFT configuration. */
struct AbftOptions
{
    bool enabled = false;
};

/**
 * Row-major view of one operand plane whose elements are already
 * bf16-quantized: data[r*stride + c] == quantizeBf16(x(r, c)), the
 * value the array multiplied.
 */
struct AbftPlane
{
    const float *data;
    std::size_t stride; ///< row stride, in elements
    std::size_t rows;
    std::size_t cols;
};

/**
 * The B-only checksum vectors of one k x cols operand panel, in double:
 * colSum[kk] = sum_j b(kk, j), absColSum[kk] = sum_j |b(kk, j)|, each
 * summed in ascending j.
 */
struct AbftPanelSums
{
    std::vector<double> colSum;
    std::vector<double> absColSum;
};

/** Column-sum vectors of one quantized B panel. */
AbftPanelSums abftPanelSums(const AbftPlane &b);

/** Verdict for one checked tile. */
struct AbftTileResult
{
    bool flagged = false; ///< any checksum mismatch
    std::vector<std::size_t> suspectRows;
    std::vector<std::size_t> suspectCols;
    /** Row x column intersection: the located accumulators. */
    std::vector<std::pair<std::size_t, std::size_t>> located;
    /** Cells repaired in-place (subset of `located`). */
    std::vector<std::pair<std::size_t, std::size_t>> corrected;
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
    explicit AbftChecker(AbftOptions options = AbftOptions{});

    const AbftOptions &options() const { return options_; }
    const AbftStats &stats() const { return stats_; }
    void resetStats() { stats_ = AbftStats{}; }

    /**
     * Check and repair one tile. `acc` is the live
     * accumulator region (rows x cols fp32) produced by streaming the
     * full k depth of `a` (rows x k) against `b` (k x cols); repaired
     * values are written back into `acc`. Both planes hold quantized
     * values; `b_sums` must be abftPanelSums(b).
     */
    AbftTileResult checkTile(const AbftPlane &a, const AbftPlane &b,
                             const AbftPanelSums &b_sums, Matrix &acc);

  private:
    AbftOptions options_;
    AbftStats stats_;
};

} // namespace prose

#endif // PROSE_FAULT_ABFT_HH
