/**
 * @file
 * Descriptive statistics and correlation measures.
 *
 * Used throughout the evaluation harness: Spearman rank correlation is the
 * accuracy metric of the paper's Section 2.2 binding-affinity experiment;
 * the rest supports benchmark reporting and the DSE.
 */

#ifndef PROSE_COMMON_STATS_HH
#define PROSE_COMMON_STATS_HH

#include <vector>

namespace prose {

/** Arithmetic mean. Empty input is a caller bug. */
double mean(const std::vector<double> &xs);

/** Smallest element. */
double minOf(const std::vector<double> &xs);

/** Largest element. */
double maxOf(const std::vector<double> &xs);

/**
 * Linear-interpolated percentile, p in [0, 100].
 * percentile(xs, 50) is the median.
 */
double percentile(std::vector<double> xs, double p);

/** Pearson product-moment correlation of two equal-length series. */
double pearson(const std::vector<double> &xs, const std::vector<double> &ys);

/**
 * Spearman rank correlation: Pearson correlation of the ranks, with ties
 * assigned their average rank (the convention scipy uses).
 */
double spearman(const std::vector<double> &xs, const std::vector<double> &ys);

/**
 * Average ranks of a series (1-based); ties share the mean of the ranks
 * they span.
 */
std::vector<double> averageRanks(const std::vector<double> &xs);

} // namespace prose

#endif // PROSE_COMMON_STATS_HH
