#include "serve_batcher.hh"

#include <algorithm>
#include <limits>

#include "accel/batcher.hh"
#include "common/logging.hh"

namespace prose {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

void
ServeBatcherSpec::validate() const
{
    if (buckets.empty())
        fatal("serve batcher: no length buckets");
    for (std::size_t i = 1; i < buckets.size(); ++i)
        if (buckets[i] <= buckets[i - 1])
            fatal("serve batcher: buckets must be strictly increasing");
    if (maxBatch == 0)
        fatal("serve batcher: zero max batch");
}

ServeBatcher::ServeBatcher(ServeBatcherSpec spec,
                           const ServiceModel &model)
    : spec_(std::move(spec)), model_(model)
{
    spec_.validate();
}

void
ServeBatcher::enqueue(RequestArena &arena, RequestId id)
{
    const Request &request = arena[id];
    PROSE_ASSERT(request.state == RequestState::Admitted,
                 "batcher enqueue of a ", toString(request.state),
                 " request");
    const std::uint64_t bucket =
        bucketForTokens(request.residues + 2, spec_.buckets);
    buckets_[bucket].pushBack(arena, id);
    ++queued_;
}

void
ServeBatcher::remove(RequestArena &arena, RequestId id)
{
    const std::uint64_t bucket =
        bucketForTokens(arena[id].residues + 2, spec_.buckets);
    const auto it = buckets_.find(bucket);
    PROSE_ASSERT(it != buckets_.end(), "remove from an absent bucket");
    it->second.remove(arena, id);
    --queued_;
}

std::uint64_t
ServeBatcher::effectiveMaxBatch() const
{
    if (spec_.overloadDepth > 0 && queued_ > spec_.overloadDepth)
        return std::max<std::uint64_t>(1, spec_.maxBatch / 2);
    return spec_.maxBatch;
}

std::int32_t
ServeBatcher::shedVictim(const RequestArena &arena) const
{
    // Ascending bucket order with a strict comparison: a tie on
    // arrival time keeps the smaller bucket's front.
    std::int32_t victim = kNoRequest;
    for (const auto &[len, queue] : buckets_) {
        const std::int32_t candidate = queue.front();
        if (candidate == kNoRequest)
            continue;
        if (victim == kNoRequest ||
            arena[static_cast<std::size_t>(candidate)].arrivalSeconds <
                arena[static_cast<std::size_t>(victim)].arrivalSeconds)
            victim = candidate;
    }
    return victim;
}

double
ServeBatcher::latestSafeClose(const RequestArena &arena,
                              std::uint64_t bucket_len,
                              const RequestFifo &queue) const
{
    const std::int32_t front = queue.front();
    if (front == kNoRequest)
        return kInf;
    const std::uint64_t batch =
        std::min<std::uint64_t>(queue.size(), effectiveMaxBatch());
    const double service = model_.seconds(bucket_len, batch);
    return arena[static_cast<std::size_t>(front)].deadlineSeconds -
           service;
}

double
ServeBatcher::nextCloseSeconds(const RequestArena &arena) const
{
    double earliest = kInf;
    for (const auto &[len, queue] : buckets_)
        earliest =
            std::min(earliest, latestSafeClose(arena, len, queue));
    return earliest;
}

bool
ServeBatcher::close(RequestArena &arena, double now, ClosedBatch &out,
                    bool force)
{
    // Pick the bucket to close: full beats urgent beats forced; within
    // a class, the earliest front deadline, then the smaller bucket
    // (the map iteration order breaks the final tie deterministically).
    const std::uint64_t eff_max = effectiveMaxBatch();
    std::uint64_t chosen_len = 0;
    const RequestFifo *chosen = nullptr;
    int chosen_class = 0; // 2 = full, 1 = urgent, 0 = none/forced
    double chosen_deadline = kInf;
    for (const auto &[len, queue] : buckets_) {
        const std::int32_t front = queue.front();
        if (front == kNoRequest)
            continue;
        const double front_deadline =
            arena[static_cast<std::size_t>(front)].deadlineSeconds;
        int cls = 0;
        if (queue.size() >= eff_max)
            cls = 2;
        else if (latestSafeClose(arena, len, queue) <= now)
            cls = 1;
        else if (force)
            cls = 0;
        else
            continue;
        if (!chosen || cls > chosen_class ||
            (cls == chosen_class && front_deadline < chosen_deadline)) {
            chosen = &queue;
            chosen_len = len;
            chosen_class = cls;
            chosen_deadline = front_deadline;
        }
    }
    if (!chosen)
        return false;

    RequestFifo &queue = buckets_[chosen_len];
    out.paddedLength = chosen_len;
    out.members.clear();
    out.expired.clear();
    while (!queue.empty() && out.members.size() < eff_max) {
        const RequestId id = queue.popFront(arena);
        --queued_;
        transition(arena[id], RequestState::Batched, now);
        out.members.push_back(id);
    }

    // Deadline re-check with the service time of the formed batch;
    // single pass — dropping expired members only shrinks the batch and
    // thus the service time, so survivors' checks stay conservative.
    const double service =
        model_.seconds(chosen_len, out.members.size());
    std::vector<RequestId> alive;
    alive.reserve(out.members.size());
    for (const RequestId id : out.members) {
        if (now + service > arena[id].deadlineSeconds) {
            transition(arena[id], RequestState::TimedOut, now);
            out.expired.push_back(id);
        } else {
            alive.push_back(id);
        }
    }
    out.members = std::move(alive);
    out.serviceSeconds =
        out.members.empty()
            ? 0.0
            : model_.seconds(chosen_len, out.members.size());
    return true;
}

} // namespace prose
