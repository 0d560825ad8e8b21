#include "abft.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/scratch.hh"
#include "numerics/kernels/kernel_dispatch.hh"

namespace prose {

namespace {

/**
 * Detection threshold as a fraction of the row/col absolute mass.
 * bf16 x bf16 products are exact in fp32, so the only legitimate
 * residual is fp32 accumulation rounding — a random walk of order
 * sqrt(k) * eps_f32 relative to the absolute mass, which stays well
 * under 1e-8 of the mass for practical depths while the smallest
 * architecturally visible flip (fp32 bit 16) is 2^-7 of its cell.
 * 2e-7 keeps ~20x margin against false positives and catches flips on
 * all but vanishingly small cells.
 */
constexpr double kRelTolerance = 2e-7;

} // namespace

AbftSums
abftPanelSums(const AbftPlane &b, double *out)
{
    kernels::activeKernels().rowSumsF64(out, out + b.rows, b.data, b.stride,
                                        b.rows, b.cols, nullptr, nullptr);
    return { out, out + b.rows };
}

AbftSums
abftRowBlockSums(const AbftPlane &a, double *out)
{
    kernels::activeKernels().columnSumsF64(out, out + a.cols, a.data,
                                           a.stride, a.rows, a.cols,
                                           nullptr, nullptr);
    return { out, out + a.cols };
}

AbftTileResult
AbftChecker::checkTile(const AbftPlane &a, const AbftSums &a_sums,
                       const AbftPlane &b, const AbftSums &b_sums,
                       const AbftPlane &acc)
{
    const std::size_t rows = acc.rows;
    const std::size_t cols = acc.cols;
    const std::size_t k = a.cols;
    PROSE_ASSERT(a.rows == rows && b.cols == cols && b.rows == k,
                 "ABFT operand/accumulator shape mismatch");
    auto accAt = [&acc](std::size_t r, std::size_t c) {
        return acc.data[r * acc.stride + c];
    };

    AbftTileResult result;
    ++stats_.tilesChecked;

    // Checksums over the bf16-quantized operands the array saw,
    // accumulated in double so checksum rounding stays far below the
    // array's own fp32 rounding. Each output sums its terms in
    // ascending index order (the kernels' contract).
    static thread_local ScratchBuffer<double> work_scratch;
    double *const row_expected = work_scratch.get(3 * (rows + cols));
    double *const row_mass = row_expected + rows;
    double *const row_residual = row_mass + rows;
    double *const col_expected = row_residual + rows;
    double *const col_mass = col_expected + cols;
    double *const col_residual = col_mass + cols;
    const kernels::KernelSet &ks = kernels::activeKernels();

    // Row residuals: a(r,:) . colsum(B) minus the actual row sums of C.
    ks.rowSumsF64(row_expected, row_mass, a.data, a.stride, rows, k,
                  b_sums.sum, b_sums.absSum);
    ks.rowSumsF64(row_residual, nullptr, acc.data, acc.stride, rows, cols,
                  nullptr, nullptr);
    for (std::size_t r = 0; r < rows; ++r) {
        row_residual[r] = row_expected[r] - row_residual[r];
        const double thresh = kRelTolerance * row_mass[r];
        if (!(std::fabs(row_residual[r]) <= thresh))
            result.suspectRows.push_back(r);
    }

    // Column residuals: rowsum(A) . b(:,c) minus the actual column sums.
    ks.columnSumsF64(col_expected, col_mass, b.data, b.stride, k, cols,
                     a_sums.sum, a_sums.absSum);
    ks.columnSumsF64(col_residual, nullptr, acc.data, acc.stride, rows,
                     cols, nullptr, nullptr);
    for (std::size_t c = 0; c < cols; ++c) {
        col_residual[c] = col_expected[c] - col_residual[c];
        const double thresh = kRelTolerance * col_mass[c];
        if (!(std::fabs(col_residual[c]) <= thresh))
            result.suspectCols.push_back(c);
    }

    result.flagged =
        !result.suspectRows.empty() || !result.suspectCols.empty();
    if (!result.flagged)
        return result;
    ++stats_.tilesFlagged;

    // Locate: a corrupted accumulator leaves the *same* residual in its
    // row and its column, which disambiguates multi-error tiles.
    bool any_unlocated = result.suspectRows.empty();
    std::uint64_t exact = 0, ambiguous = 0;
    for (const std::size_t r : result.suspectRows) {
        std::vector<std::size_t> candidates;
        for (const std::size_t c : result.suspectCols) {
            const double skew =
                std::fabs(row_residual[r] - col_residual[c]);
            const double tol =
                kRelTolerance * (row_mass[r] + col_mass[c]);
            if (skew <= tol)
                candidates.push_back(c);
        }
        // A NaN/Inf residual never residual-matches; with a single
        // suspect column the assignment is still unambiguous.
        if (candidates.empty() && result.suspectCols.size() == 1)
            candidates = result.suspectCols;

        if (candidates.size() == 1) {
            const std::size_t c = candidates.front();
            result.located.emplace_back(r, c);
            ++exact;
            // Rebuild the cell from its row checksum and the healthy
            // cells (robust even when the cell is Inf/NaN).
            double others = 0.0;
            for (std::size_t j = 0; j < cols; ++j)
                if (j != c)
                    others += accAt(r, j);
            result.corrected.emplace_back(r, c);
            result.repairs.push_back(
                static_cast<float>(row_expected[r] - others));
        } else if (!candidates.empty()) {
            for (const std::size_t c : candidates) {
                result.located.emplace_back(r, c);
                ++ambiguous;
            }
        } else if (!result.suspectCols.empty()) {
            for (const std::size_t c : result.suspectCols) {
                result.located.emplace_back(r, c);
                ++ambiguous;
            }
        } else {
            any_unlocated = true;
        }
    }
    if (any_unlocated)
        ++stats_.unlocatedTiles;
    stats_.locatedElements += exact;
    stats_.ambiguousElements += ambiguous;
    stats_.correctedElements += result.corrected.size();
    return result;
}

} // namespace prose
