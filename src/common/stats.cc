#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "logging.hh"

namespace prose {

double
mean(const std::vector<double> &xs)
{
    PROSE_ASSERT(!xs.empty(), "mean of empty series");
    return std::accumulate(xs.begin(), xs.end(), 0.0) /
           static_cast<double>(xs.size());
}

double
minOf(const std::vector<double> &xs)
{
    PROSE_ASSERT(!xs.empty(), "min of empty series");
    return *std::min_element(xs.begin(), xs.end());
}

double
maxOf(const std::vector<double> &xs)
{
    PROSE_ASSERT(!xs.empty(), "max of empty series");
    return *std::max_element(xs.begin(), xs.end());
}

double
percentile(std::vector<double> xs, double p)
{
    PROSE_ASSERT(!xs.empty(), "percentile of empty series");
    PROSE_ASSERT(p >= 0.0 && p <= 100.0, "percentile p out of range");
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1)
        return xs[0];
    const double pos = (p / 100.0) * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double
pearson(const std::vector<double> &xs, const std::vector<double> &ys)
{
    PROSE_ASSERT(xs.size() == ys.size() && xs.size() >= 2,
                 "pearson needs two equal-length series, n >= 2");
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

std::vector<double>
averageRanks(const std::vector<double> &xs)
{
    const std::size_t n = xs.size();
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0u);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });

    std::vector<double> ranks(n, 0.0);
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j + 1 < n && xs[idx[j + 1]] == xs[idx[i]])
            ++j;
        // Ties [i, j] share the average 1-based rank.
        const double avg = (static_cast<double>(i) +
                            static_cast<double>(j)) / 2.0 + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            ranks[idx[k]] = avg;
        i = j + 1;
    }
    return ranks;
}

double
spearman(const std::vector<double> &xs, const std::vector<double> &ys)
{
    PROSE_ASSERT(xs.size() == ys.size() && xs.size() >= 2,
                 "spearman needs two equal-length series, n >= 2");
    return pearson(averageRanks(xs), averageRanks(ys));
}

} // namespace prose
