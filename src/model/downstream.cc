#include "downstream.hh"

#include <cmath>

#include "common/logging.hh"
#include "numerics/activations.hh"

namespace prose {

void
LogisticHead::fit(const Matrix &features, const std::vector<int> &labels,
                  FitOptions options)
{
    const std::size_t n = features.rows();
    const std::size_t d = features.cols();
    PROSE_ASSERT(labels.size() == n, "label arity mismatch");
    PROSE_ASSERT(n >= 2 && d >= 1, "logistic fit needs data");
    for (int label : labels)
        PROSE_ASSERT(label == 0 || label == 1, "labels must be 0/1");

    // Standardization moments.
    mean_.assign(d, 0.0);
    stddev_.assign(d, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < d; ++j)
            mean_[j] += features(i, j);
    for (double &m : mean_)
        m /= static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < d; ++j) {
            const double delta = features(i, j) - mean_[j];
            stddev_[j] += delta * delta;
        }
    for (double &sd : stddev_) {
        sd = std::sqrt(sd / static_cast<double>(n));
        if (sd < 1e-12)
            sd = 1.0; // constant feature: leave centered at zero
    }

    weights_.assign(d, 0.0);
    bias_ = 0.0;
    fitted_ = true; // standardize() is usable from here on

    std::vector<double> grad(d, 0.0);
    for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
        std::fill(grad.begin(), grad.end(), 0.0);
        double grad_bias = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::vector<double> x = standardize(features, i);
            double z = bias_;
            for (std::size_t j = 0; j < d; ++j)
                z += weights_[j] * x[j];
            const double p = sigmoid(static_cast<float>(z));
            const double err = p - labels[i];
            for (std::size_t j = 0; j < d; ++j)
                grad[j] += err * x[j];
            grad_bias += err;
        }
        const double scale =
            options.learningRate / static_cast<double>(n);
        for (std::size_t j = 0; j < d; ++j) {
            weights_[j] -=
                scale * (grad[j] +
                         options.l2 * weights_[j] *
                             static_cast<double>(n));
        }
        bias_ -= scale * grad_bias;
    }
}

std::vector<double>
LogisticHead::standardize(const Matrix &features, std::size_t row) const
{
    std::vector<double> x(features.cols());
    for (std::size_t j = 0; j < features.cols(); ++j)
        x[j] = (features(row, j) - mean_[j]) / stddev_[j];
    return x;
}

std::vector<double>
LogisticHead::predictProbability(const Matrix &features) const
{
    PROSE_ASSERT(fitted_, "LogisticHead used before fit()");
    PROSE_ASSERT(features.cols() == weights_.size(),
                 "feature arity mismatch");
    std::vector<double> out;
    out.reserve(features.rows());
    for (std::size_t i = 0; i < features.rows(); ++i) {
        const std::vector<double> x = standardize(features, i);
        double z = bias_;
        for (std::size_t j = 0; j < x.size(); ++j)
            z += weights_[j] * x[j];
        out.push_back(sigmoid(static_cast<float>(z)));
    }
    return out;
}

std::vector<int>
LogisticHead::predict(const Matrix &features) const
{
    std::vector<int> labels;
    for (double p : predictProbability(features))
        labels.push_back(p >= 0.5 ? 1 : 0);
    return labels;
}

double
LogisticHead::accuracy(const Matrix &features,
                       const std::vector<int> &labels) const
{
    PROSE_ASSERT(labels.size() == features.rows(),
                 "label arity mismatch");
    const std::vector<int> predicted = predict(features);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < labels.size(); ++i)
        hits += predicted[i] == labels[i];
    return static_cast<double>(hits) /
           static_cast<double>(labels.size());
}

} // namespace prose
