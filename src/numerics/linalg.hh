/**
 * @file
 * Dense linear-algebra kernels supporting the downstream protein task:
 * a Cholesky factorization/solve and the regularized (ridge) linear
 * regression used in the paper's Section 2.2 binding-affinity experiment.
 */

#ifndef PROSE_NUMERICS_LINALG_HH
#define PROSE_NUMERICS_LINALG_HH

#include <vector>

#include "matrix.hh"

namespace prose {

/**
 * In-place lower-Cholesky factorization of a symmetric positive-definite
 * matrix. Returns false (leaving `a` partially modified) if a non-positive
 * pivot is encountered.
 */
bool choleskyFactor(Matrix &a);

/**
 * Solve L L^T x = b given the lower factor from choleskyFactor().
 * Forward then backward substitution.
 */
std::vector<double> choleskySolve(const Matrix &l,
                                  const std::vector<double> &b);

/** Fitted ridge-regression model: y ~ x . weights + intercept. */
struct RidgeModel
{
    std::vector<double> weights;
    double intercept = 0.0;

    /** Predict each row of a feature matrix; panics unless it has one
     *  column per weight. */
    std::vector<double> predictRows(const Matrix &x) const;
};

/**
 * Fit ridge regression: minimize |y - Xw - b|^2 + lambda |w|^2 over w, b.
 * Features are centered internally so the intercept is unpenalized.
 *
 * @param x n_samples x n_features design matrix
 * @param y n_samples targets
 * @param lambda L2 penalty (> 0 keeps the normal equations SPD)
 */
RidgeModel ridgeFit(const Matrix &x, const std::vector<double> &y,
                    double lambda);

} // namespace prose

#endif // PROSE_NUMERICS_LINALG_HH
