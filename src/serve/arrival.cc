#include "arrival.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace prose {

namespace {

constexpr double kBurstFraction = 0.2;   ///< fraction of the cycle bursting
constexpr double kBurstMultiplier = 4.0; ///< burst rate / base rate

static_assert(kBurstFraction > 0.0 && kBurstFraction < 1.0,
              "the burst must fill part of the cycle");
static_assert(kBurstMultiplier >= 1.0, "a burst cannot be quieter");

/** Base rate over mean rate: the long-run mean stays ratePerSecond. */
constexpr double kMeanScale =
    kBurstFraction * kBurstMultiplier + (1.0 - kBurstFraction);

} // namespace

void
ArrivalSpec::validate() const
{
    if (!std::isfinite(ratePerSecond) || ratePerSecond <= 0.0)
        fatal("arrival spec: rate must be a positive finite "
              "requests/second, got ", ratePerSecond);
    if (count == 0)
        fatal("arrival spec: zero requests to generate");
    if (minResidues == 0)
        fatal("arrival spec: zero-length requests are not a workload");
    if (maxResidues < minResidues)
        fatal("arrival spec: length bounds inverted (", minResidues,
              " > ", maxResidues, ")");
    if (kind == ArrivalKind::Bursty && burstPeriodSeconds <= 0.0)
        fatal("arrival spec: burst period must be positive");
}

namespace {

/** Instantaneous rate of the modulated processes at time `t`. */
double
rateAt(const ArrivalSpec &spec, double t)
{
    switch (spec.kind) {
      case ArrivalKind::Poisson:
        return spec.ratePerSecond;
      case ArrivalKind::Bursty: {
        const double phase =
            std::fmod(t, spec.burstPeriodSeconds) /
            spec.burstPeriodSeconds;
        // The burst occupies the head of each cycle.
        const double base = spec.ratePerSecond / kMeanScale;
        return phase < kBurstFraction ? base * kBurstMultiplier : base;
      }
    }
    panic("rateAt: unknown arrival kind");
}

/** Peak rate, the thinning envelope. */
double
peakRate(const ArrivalSpec &spec)
{
    switch (spec.kind) {
      case ArrivalKind::Poisson:
        return spec.ratePerSecond;
      case ArrivalKind::Bursty:
        return spec.ratePerSecond * kBurstMultiplier / kMeanScale;
    }
    panic("peakRate: unknown arrival kind");
}

} // namespace

std::vector<Request>
generateArrivals(const ArrivalSpec &spec, double default_slo_seconds)
{
    spec.validate();
    if (!std::isfinite(default_slo_seconds) || default_slo_seconds <= 0.0)
        fatal("arrival generation: default SLO must be positive, got ",
              default_slo_seconds);

    std::vector<Request> requests;
    // Thinning (Lewis & Shedler): candidate gaps at the peak rate,
    // accepted with probability rate(t)/peak. Every candidate consumes
    // exactly two draws (gap + acceptance) so the stream is identical
    // whichever kind modulates it.
    Rng rng(spec.seed);
    const double peak = peakRate(spec);
    double t = 0.0;
    requests.reserve(spec.count);
    while (requests.size() < spec.count) {
        const double gap_draw = rng.uniform();
        const double accept_draw = rng.uniform();
        t += -std::log(1.0 - gap_draw) / peak;
        if (accept_draw >= rateAt(spec, t) / peak)
            continue;
        Request request;
        request.id = static_cast<RequestId>(requests.size());
        request.arrivalSeconds = t;
        request.residues =
            spec.minResidues +
            rng.below(spec.maxResidues - spec.minResidues + 1);
        request.deadlineSeconds = t + default_slo_seconds;
        requests.push_back(request);
    }
    return requests;
}

} // namespace prose
