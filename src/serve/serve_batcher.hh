/**
 * @file
 * Length-bucketed *dynamic* batcher for the open-loop front end. The
 * closed-loop planner in accel/batcher.hh sees the whole workload up
 * front; here requests trickle in and every batch-close decision trades
 * throughput (wait for a fuller batch) against each member's deadline.
 *
 * Policy, per bucket (padded length from accel/bucketForTokens):
 *
 *  - a batch closes when it is full (effective max batch), or when the
 *    bucket's oldest request hits its *latest safe close time* —
 *    deadline minus the modeled service time of the batch that would
 *    close now. Deadlines propagate into the batcher; nothing waits
 *    past the point where waiting forfeits the SLO;
 *  - under overload (queued requests beyond the watermark) the
 *    effective max batch halves: smaller batches close sooner, which
 *    bounds head-of-line blocking while admission sheds the excess —
 *    the "reduced batch size" leg of graceful degradation;
 *  - at close, members whose deadline can no longer be met (now +
 *    service > deadline) are timed out *before* dispatch instead of
 *    burning accelerator time on work nobody can use.
 *
 * The batcher owns only queue structure; request state transitions go
 * through serve/request.hh so the lifecycle stays auditable.
 */

#ifndef PROSE_SERVE_SERVE_BATCHER_HH
#define PROSE_SERVE_SERVE_BATCHER_HH

#include <cstdint>
#include <map>
#include <vector>

#include "queue.hh"
#include "request.hh"
#include "service_model.hh"

namespace prose {

/** Dynamic batching policy. */
struct ServeBatcherSpec
{
    /** Bucket boundaries (padded length, includes CLS/SEP). */
    std::vector<std::uint64_t> buckets{ 64, 128, 256, 512, 1024, 2048 };
    /** Max sequences per batch when healthy. */
    std::uint64_t maxBatch = 8;
    /**
     * Queued-request count beyond which the effective max batch halves
     * (overload degradation). 0 disables the reduction.
     */
    std::uint64_t overloadDepth = 0;

    /** fatal() on empty/non-increasing buckets or zero maxBatch. */
    void validate() const;
};

/** One closed batch ready for dispatch. */
struct ClosedBatch
{
    std::uint64_t paddedLength = 0;
    std::vector<RequestId> members;  ///< state BATCHED, arrival order
    std::vector<RequestId> expired;  ///< timed out at close (terminal)
    double serviceSeconds = 0.0;     ///< modeled duration of `members`
};

class ServeBatcher
{
  public:
    ServeBatcher(ServeBatcherSpec spec, const ServiceModel &model);

    /** Queue an ADMITTED request into its length bucket. */
    void enqueue(RequestArena &arena, RequestId id);

    /** Remove a queued request (retry-cancel, shed). */
    void remove(RequestArena &arena, RequestId id);

    /** Requests currently queued across all buckets. */
    std::uint64_t queued() const { return queued_; }

    /** Max batch after overload degradation at current queue depth. */
    std::uint64_t effectiveMaxBatch() const;

    /**
     * Oldest arrival across all buckets (a tie goes to the smaller
     * bucket) — the victim of an oldest-first overload shed — or
     * kNoRequest when empty. The victim is *not* removed; callers shed
     * via remove() so the state transition stays theirs.
     */
    std::int32_t shedVictim(const RequestArena &arena) const;

    /**
     * Earliest future time any bucket must close to keep its oldest
     * member's SLO reachable; +infinity when nothing is queued. The
     * event loop uses this as its batch-timer event.
     */
    double nextCloseSeconds(const RequestArena &arena) const;

    /**
     * Close the most urgent dispatchable batch at time `now`: a bucket
     * that is full, or whose latest safe close time has arrived. Ties
     * break to the earliest front-request deadline, then the smaller
     * bucket. Members are popped in arrival order,
     * transitioned to BATCHED, and deadline-checked (single pass with
     * the post-drop service estimate); drops land in `expired` as
     * TIMED_OUT. Returns false when no bucket should close yet.
     *
     * `force` closes the most urgent non-empty bucket regardless of
     * timers — the end-of-stream flush (also exercised by tests as the
     * "empty bucket flush" edge: forcing with nothing queued is a
     * clean no-op returning false). A close can come back with every
     * member expired (`members` empty, `expired` not) — callers skip
     * the dispatch but still account the drops.
     */
    bool close(RequestArena &arena, double now, ClosedBatch &out,
               bool force = false);

    const ServeBatcherSpec &spec() const { return spec_; }

  private:
    /** Latest time the bucket can close and still meet its oldest
     *  member's deadline, given current occupancy. */
    double latestSafeClose(const RequestArena &arena,
                           std::uint64_t bucket_len,
                           const RequestFifo &queue) const;

    ServeBatcherSpec spec_;
    const ServiceModel &model_;
    /** bucket padded length -> queued requests (ordered map keeps every
     *  sweep deterministic). */
    std::map<std::uint64_t, RequestFifo> buckets_;
    std::uint64_t queued_ = 0;
};

} // namespace prose

#endif // PROSE_SERVE_SERVE_BATCHER_HH
