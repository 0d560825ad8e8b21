/**
 * @file
 * Downstream task heads (Figure 2(b)): small models fit on top of
 * frozen Protein BERT features for fluorescence, stability, and binding
 * prediction. The paper's own experiment uses regularized linear
 * regression (ridgeFit in numerics/linalg.hh); the logistic head here
 * covers the classification-style tasks (e.g. "does this protein stay
 * folded?").
 */

#ifndef PROSE_MODEL_DOWNSTREAM_HH
#define PROSE_MODEL_DOWNSTREAM_HH

#include <cstdint>
#include <vector>

#include "numerics/matrix.hh"

namespace prose {

/** Binary logistic-regression head trained by batch gradient descent. */
class LogisticHead
{
  public:
    /** Training hyperparameters. */
    struct FitOptions
    {
        std::size_t epochs = 500;
        double learningRate = 0.1;
        double l2 = 1e-3;
    };

    /**
     * Fit on features (n_samples x dim) and 0/1 labels.
     * Features are standardized internally for conditioning.
     */
    void fit(const Matrix &features, const std::vector<int> &labels,
             FitOptions options);

    /** fit() with default hyperparameters. */
    void
    fit(const Matrix &features, const std::vector<int> &labels)
    {
        fit(features, labels, FitOptions{});
    }

    /** P(label == 1) per feature row. */
    std::vector<double> predictProbability(const Matrix &features) const;

    /** 0/1 predictions at a 0.5 threshold. */
    std::vector<int> predict(const Matrix &features) const;

    /** Fraction of labels matched. */
    double accuracy(const Matrix &features,
                    const std::vector<int> &labels) const;

    bool fitted() const { return fitted_; }

  private:
    /** Standardize one row into z-scores using the training moments. */
    std::vector<double> standardize(const Matrix &features,
                                    std::size_t row) const;

    std::vector<double> weights_;
    double bias_ = 0.0;
    std::vector<double> mean_;
    std::vector<double> stddev_;
    bool fitted_ = false;
};

} // namespace prose

#endif // PROSE_MODEL_DOWNSTREAM_HH
