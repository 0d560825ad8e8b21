#include "abft.hh"

#include <cmath>

#include "common/logging.hh"

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

AbftChecker::AbftChecker(AbftOptions options) : options_(options) {}

AbftPanelSums
abftPanelSums(const AbftPlane &b)
{
    AbftPanelSums sums{ std::vector<double>(b.rows, 0.0),
                        std::vector<double>(b.rows, 0.0) };
    for (std::size_t kk = 0; kk < b.rows; ++kk) {
        const float *row = b.data + kk * b.stride;
        for (std::size_t j = 0; j < b.cols; ++j) {
            const double v = row[j];
            sums.colSum[kk] += v;
            sums.absColSum[kk] += std::fabs(v);
        }
    }
    return sums;
}

AbftTileResult
AbftChecker::checkTile(const AbftPlane &a, const AbftPlane &b,
                       const AbftPanelSums &b_sums, Matrix &acc)
{
    const std::size_t rows = acc.rows();
    const std::size_t cols = acc.cols();
    const std::size_t k = a.cols;
    PROSE_ASSERT(a.rows == rows && b.cols == cols && b.rows == k &&
                     b_sums.colSum.size() == k &&
                     b_sums.absColSum.size() == k,
                 "ABFT operand/accumulator shape mismatch");
    const std::vector<double> &col_sum_b = b_sums.colSum;
    const std::vector<double> &abs_col_sum_b = b_sums.absColSum;
    auto aAt = [&a](std::size_t r, std::size_t kk) -> double {
        return a.data[r * a.stride + kk];
    };
    auto bAt = [&b](std::size_t kk, std::size_t c) -> double {
        return b.data[kk * b.stride + c];
    };
    float *const acc_data = acc.data();
    auto accAt = [acc_data, cols](std::size_t r, std::size_t c) -> float & {
        return acc_data[r * cols + c];
    };

    AbftTileResult result;
    ++stats_.tilesChecked;

    // Checksum vectors over the bf16-quantized operands the array saw,
    // accumulated in double so checksum rounding stays far below the
    // array's own fp32 rounding. Every sum below runs in ascending
    // index order per output element; the loops are ordered so the
    // inner one walks a plane row contiguously.
    std::vector<double> row_sum_a(k, 0.0), abs_row_sum_a(k, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double v = aAt(i, kk);
            row_sum_a[kk] += v;
            abs_row_sum_a[kk] += std::fabs(v);
        }
    }

    // Row residuals: actual row sums of C vs a(r,:) . colsum(B).
    std::vector<double> row_expected(rows, 0.0);
    std::vector<double> row_residual(rows, 0.0), row_mass(rows, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
        double expected = 0.0, mass = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double v = aAt(r, kk);
            expected += v * col_sum_b[kk];
            mass += std::fabs(v) * abs_col_sum_b[kk];
        }
        double actual = 0.0;
        for (std::size_t j = 0; j < cols; ++j)
            actual += accAt(r, j);
        row_expected[r] = expected;
        row_residual[r] = expected - actual;
        row_mass[r] = mass;
        const double thresh = kRelTolerance * mass;
        if (!(std::fabs(row_residual[r]) <= thresh))
            result.suspectRows.push_back(r);
    }

    // Column residuals: actual column sums vs rowsum(A) . b(:,c).
    std::vector<double> col_expected(cols, 0.0), col_actual(cols, 0.0);
    std::vector<double> col_residual(cols, 0.0), col_mass(cols, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t c = 0; c < cols; ++c) {
            const double v = bAt(kk, c);
            col_expected[c] += row_sum_a[kk] * v;
            col_mass[c] += abs_row_sum_a[kk] * std::fabs(v);
        }
    }
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t c = 0; c < cols; ++c)
            col_actual[c] += accAt(i, c);
    }
    for (std::size_t c = 0; c < cols; ++c) {
        col_residual[c] = col_expected[c] - col_actual[c];
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
            accAt(r, c) = static_cast<float>(row_expected[r] - others);
            result.corrected.emplace_back(r, c);
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
