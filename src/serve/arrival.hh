/**
 * @file
 * Seeded, deterministic open-loop arrival generation. "Millions of
 * users" is an arrival process, not a batch: the serving simulator is
 * driven by a request stream drawn from one of
 *
 *   - Poisson: memoryless arrivals at a constant mean rate;
 *   - Bursty: a square-wave modulated Poisson process (quiet base rate
 *     with periodic bursts at a rate multiplier) — the flash-crowd
 *     shape that stresses admission control.
 *
 * Both processes are generated by thinning against the peak rate from
 * one xoshiro stream, so a spec (kind, rate, seed, ...) maps to a
 * bit-identical request list on every platform and thread count.
 */

#ifndef PROSE_SERVE_ARRIVAL_HH
#define PROSE_SERVE_ARRIVAL_HH

#include <cstdint>
#include <vector>

#include "request.hh"

namespace prose {

/** Supported arrival processes. */
enum class ArrivalKind
{
    Poisson,
    Bursty,
};

/** Full description of one arrival process. */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;
    std::uint64_t seed = 1;
    double ratePerSecond = 1000.0; ///< mean rate
    std::uint64_t count = 1000;    ///< requests to generate

    /** Residue lengths drawn uniformly from [minResidues, maxResidues];
     *  equal bounds give a fixed-length stream. */
    std::uint64_t minResidues = 126;
    std::uint64_t maxResidues = 126;

    /** Bursty shape: one quiet+burst cycle. The burst fills the first
     *  20% of each cycle at 4x the base rate. */
    double burstPeriodSeconds = 0.5;

    /** fatal() on negative/non-finite rates, zero counts/lengths,
     *  inverted length bounds, or a non-positive burst period. */
    void validate() const;
};

/**
 * Generate the deterministic request stream for a spec: requests come
 * back sorted by arrival time, ids dense in arrival order, deadlines
 * at arrival + defaultSloSeconds, in state QUEUED.
 */
std::vector<Request> generateArrivals(const ArrivalSpec &spec,
                                      double defaultSloSeconds);

} // namespace prose

#endif // PROSE_SERVE_ARRIVAL_HH
