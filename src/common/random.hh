/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Everything in this repository that needs randomness (weight init,
 * synthetic protein generation, workload jitter) draws from Xoshiro256ss
 * so a run is exactly reproducible from a 64-bit seed. We deliberately do
 * not use std::mt19937 so that results are stable across standard-library
 * implementations.
 */

#ifndef PROSE_COMMON_RANDOM_HH
#define PROSE_COMMON_RANDOM_HH

#include <cstdint>
#include <vector>

namespace prose {

/**
 * xoshiro256** generator (Blackman & Vigna). Passes BigCrush; tiny state;
 * identical output on every platform.
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion of a single 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n) for n > 0. Unbiased via rejection. */
    std::uint64_t below(std::uint64_t n);

    /** Standard normal via Box-Muller, deterministic. */
    double gaussian();

    /** Normal with given mean / standard deviation. */
    double gaussian(double mean, double stddev);

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    std::uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace prose

#endif // PROSE_COMMON_RANDOM_HH
