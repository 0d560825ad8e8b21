/**
 * @file
 * Per-request lifecycle of the open-loop serving front end. A request is
 * one protein sequence submitted by a user at a wall-clock arrival time;
 * it moves through an explicit state machine
 *
 *   QUEUED -> ADMITTED -> BATCHED -> RUNNING -> { DONE, TIMED_OUT,
 *                                                 SHED, RETRIED }
 *
 * where RETRIED loops back to QUEUED (a degraded instance dropped the
 * work and the request re-enters admission after backoff). DONE,
 * TIMED_OUT and SHED are terminal; every admitted request must reach
 * exactly one of them — the serving simulator asserts this conservation
 * law, which is what "zero lost requests" means under chaos.
 *
 * Transitions are validated against an explicit legality table
 * (transition() panics on an illegal edge) and timestamped, so the
 * report layer can decompose latency into queueing / batching / service
 * time without re-deriving the schedule.
 */

#ifndef PROSE_SERVE_REQUEST_HH
#define PROSE_SERVE_REQUEST_HH

#include <cstdint>
#include <string>

namespace prose {

/** Dense request handle: an index into the serving simulator's arena. */
using RequestId = std::uint32_t;

/** Sentinel for "no request" in intrusive links. */
constexpr std::int32_t kNoRequest = -1;

/** Lifecycle states (see file header for the legal edges). */
enum class RequestState : std::uint8_t
{
    Queued,   ///< arrived, waiting for the admission decision
    Admitted, ///< accepted into a length-bucket queue
    Batched,  ///< member of a closed batch awaiting dispatch
    Running,  ///< its batch is executing on an instance
    Done,     ///< completed within its deadline (terminal)
    TimedOut, ///< missed its deadline (terminal)
    Shed,     ///< dropped by admission/overload/retry budget (terminal)
    Retried,  ///< instance died mid-batch; re-queues after backoff
};

const char *toString(RequestState state);

/** True for the three states a request can end the run in. */
bool isTerminal(RequestState state);

/** One in-flight user request. */
struct Request
{
    RequestId id = 0;
    double arrivalSeconds = 0.0;  ///< open-loop arrival time
    std::uint64_t residues = 0;   ///< protein length (pre-CLS/SEP)
    double deadlineSeconds = 0.0; ///< absolute SLO deadline

    RequestState state = RequestState::Queued;
    std::uint32_t attempts = 0;   ///< dispatch attempts so far

    /** @name Transition timestamps (-1 until reached) @{ */
    double admittedSeconds = -1.0;
    double batchedSeconds = -1.0;
    double startedSeconds = -1.0;
    double finishedSeconds = -1.0; ///< set at every terminal transition
    /** @} */

    std::int32_t instance = -1;   ///< executing instance, -1 if none

    /** @name Intrusive queue links (see serve/queue.hh) @{ */
    std::int32_t prev = kNoRequest;
    std::int32_t next = kNoRequest;
    /** @} */

    /** End-to-end latency; only meaningful once terminal. */
    double latencySeconds() const
    {
        return finishedSeconds - arrivalSeconds;
    }
};

/**
 * Move a request along one legal edge at simulated time `now`,
 * timestamping the transition. Panics on an edge outside the lifecycle
 * diagram — an illegal transition is a serving-layer bug, never user
 * input.
 */
void transition(Request &request, RequestState to, double now);

/** True if `from -> to` is a legal lifecycle edge. */
bool transitionAllowed(RequestState from, RequestState to);

} // namespace prose

#endif // PROSE_SERVE_REQUEST_HH
