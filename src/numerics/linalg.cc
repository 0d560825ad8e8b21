#include "linalg.hh"

#include <cmath>

#include "common/logging.hh"

namespace prose {

bool
choleskyFactor(Matrix &a)
{
    PROSE_ASSERT(a.rows() == a.cols(), "cholesky needs a square matrix");
    const std::size_t n = a.rows();
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a(j, j);
        for (std::size_t k = 0; k < j; ++k)
            diag -= static_cast<double>(a(j, k)) * a(j, k);
        if (diag <= 0.0)
            return false;
        const double ljj = std::sqrt(diag);
        a(j, j) = static_cast<float>(ljj);
        for (std::size_t i = j + 1; i < n; ++i) {
            double v = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                v -= static_cast<double>(a(i, k)) * a(j, k);
            a(i, j) = static_cast<float>(v / ljj);
        }
        // Zero the strictly-upper triangle so `a` is exactly L.
        for (std::size_t i = 0; i < j; ++i)
            a(i, j) = 0.0f;
    }
    return true;
}

std::vector<double>
choleskySolve(const Matrix &l, const std::vector<double> &b)
{
    const std::size_t n = l.rows();
    PROSE_ASSERT(l.cols() == n && b.size() == n,
                 "choleskySolve dimension mismatch");
    // Forward: L z = b.
    std::vector<double> z(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double v = b[i];
        for (std::size_t k = 0; k < i; ++k)
            v -= static_cast<double>(l(i, k)) * z[k];
        z[i] = v / l(i, i);
    }
    // Backward: L^T x = z.
    std::vector<double> x(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double v = z[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            v -= static_cast<double>(l(k, ii)) * x[k];
        x[ii] = v / l(ii, ii);
    }
    return x;
}

std::vector<double>
RidgeModel::predictRows(const Matrix &x) const
{
    PROSE_ASSERT(weights.size() == x.cols(),
                 "ridge model feature arity mismatch");
    std::vector<double> out;
    out.reserve(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
        double acc = intercept;
        for (std::size_t j = 0; j < x.cols(); ++j)
            acc += static_cast<double>(x(i, j)) * weights[j];
        out.push_back(acc);
    }
    return out;
}

RidgeModel
ridgeFit(const Matrix &x, const std::vector<double> &y, double lambda)
{
    const std::size_t n = x.rows();
    const std::size_t d = x.cols();
    PROSE_ASSERT(y.size() == n, "ridgeFit target arity mismatch");
    PROSE_ASSERT(n >= 2, "ridgeFit needs at least two samples");
    PROSE_ASSERT(lambda > 0.0, "ridgeFit needs a positive penalty");

    // Center features and targets; the intercept absorbs the means.
    std::vector<double> x_mean(d, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < d; ++j)
            x_mean[j] += x(i, j);
    for (double &m : x_mean)
        m /= static_cast<double>(n);
    double y_mean = 0.0;
    for (double v : y)
        y_mean += v;
    y_mean /= static_cast<double>(n);

    // Normal equations: (Xc^T Xc + lambda I) w = Xc^T yc. The Gram
    // matrix accumulates in a local double buffer — running the sums
    // through float Matrix storage loses ~n*eps relative precision,
    // which visibly degrades conditioning on ill-scaled features — and
    // narrows to float exactly once, after the ridge penalty is added.
    std::vector<double> gram_acc(d * d, 0.0);
    std::vector<double> rhs(d, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            const double xij = x(i, j) - x_mean[j];
            rhs[j] += xij * (y[i] - y_mean);
            for (std::size_t k = j; k < d; ++k) {
                const double xik = x(i, k) - x_mean[k];
                gram_acc[j * d + k] += xij * xik;
            }
        }
    }
    Matrix gram(d, d);
    for (std::size_t j = 0; j < d; ++j) {
        gram_acc[j * d + j] += lambda;
        for (std::size_t k = j; k < d; ++k) {
            const float narrowed =
                static_cast<float>(gram_acc[j * d + k]);
            gram(j, k) = narrowed;
            gram(k, j) = narrowed;
        }
    }

    const bool ok = choleskyFactor(gram);
    PROSE_ASSERT(ok, "ridge normal equations not SPD despite penalty");
    RidgeModel model;
    model.weights = choleskySolve(gram, rhs);
    model.intercept = y_mean;
    for (std::size_t j = 0; j < d; ++j)
        model.intercept -= model.weights[j] * x_mean[j];
    return model;
}

} // namespace prose
