/**
 * @file
 * Admission control for the open-loop front end. Every arriving (or
 * retrying) request gets a decision before it touches a bucket queue:
 *
 *  - Admit: there is room and the deadline is reachable;
 *  - ShedSelf: the request is hopeless — even an immediate solo
 *    dispatch (best-case service) would finish past its deadline, so
 *    running it only burns capacity others could use;
 *  - ShedOldest: the bounded queue is full. The *newest* request is
 *    admitted and the *oldest* queued one is shed instead: under
 *    sustained overload the oldest entry is the one closest to missing
 *    its deadline anyway, so evicting it maximizes the number of
 *    requests that can still make their SLO (and keeps the queue a
 *    sliding window over fresh work rather than a museum of doomed
 *    requests).
 *
 * Decisions are pure functions of (spec, request, queue depth,
 * best-case service): no RNG, so admission is trivially deterministic
 * and unit-testable in isolation.
 */

#ifndef PROSE_SERVE_ADMISSION_HH
#define PROSE_SERVE_ADMISSION_HH

#include <cstdint>

#include "request.hh"

namespace prose {

/** Admission policy knobs. */
struct AdmissionSpec
{
    /** Bounded queue depth across all buckets; 0 = unbounded. */
    std::uint64_t maxQueueDepth = 1024;
};

/** What to do with one arriving request. */
enum class AdmissionDecision
{
    Admit,     ///< enqueue it
    ShedSelf,  ///< drop the arriving request (hopeless deadline)
    ShedOldest,///< queue full: drop the oldest queued, admit this one
};

/**
 * Decide admission for `request` at time `now`.
 *
 * @param queued requests currently held across all bucket queues
 * @param best_case_service modeled service seconds of a solo dispatch
 *        of this request's bucket (the fastest it could possibly run)
 */
AdmissionDecision admit(const AdmissionSpec &spec,
                        const Request &request, double now,
                        std::uint64_t queued,
                        double best_case_service);

} // namespace prose

#endif // PROSE_SERVE_ADMISSION_HH
