/**
 * @file
 * Intrusive FIFO queue over the serving simulator's request arena.
 * Requests live in one std::vector<Request> for the whole run (stable
 * RequestIds == indices); a queue is just head/tail indices threaded
 * through each request's prev/next fields, in the style of the HTTP/2
 * stream lists — no per-enqueue allocation, O(1) removal from the
 * middle (deadline expiry, oldest-first shedding), and fully
 * deterministic iteration order (arrival order).
 *
 * A request may sit in at most one queue at a time; enqueueing a linked
 * request or unlinking an unlinked one panics.
 */

#ifndef PROSE_SERVE_QUEUE_HH
#define PROSE_SERVE_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "request.hh"

namespace prose {

/** The backing store every queue indexes into. */
using RequestArena = std::vector<Request>;

/** Intrusive doubly-linked FIFO of requests. */
class RequestFifo
{
  public:
    bool empty() const { return head_ == kNoRequest; }
    std::uint32_t size() const { return size_; }

    /** Oldest request, or kNoRequest when empty. */
    std::int32_t front() const { return head_; }

    void
    pushBack(RequestArena &arena, RequestId id)
    {
        Request &request = arena[id];
        PROSE_ASSERT(request.prev == kNoRequest &&
                         request.next == kNoRequest &&
                         head_ != static_cast<std::int32_t>(id),
                     "request ", id, " is already queued");
        request.prev = tail_;
        request.next = kNoRequest;
        if (tail_ != kNoRequest)
            arena[static_cast<std::size_t>(tail_)].next =
                static_cast<std::int32_t>(id);
        else
            head_ = static_cast<std::int32_t>(id);
        tail_ = static_cast<std::int32_t>(id);
        ++size_;
    }

    /** Unlink and return the oldest request. Panics when empty. */
    RequestId
    popFront(RequestArena &arena)
    {
        PROSE_ASSERT(head_ != kNoRequest, "popFront on an empty queue");
        const RequestId id = static_cast<RequestId>(head_);
        remove(arena, id);
        return id;
    }

    /** Unlink `id` from anywhere in the queue (deadline expiry,
     *  oldest-first shed). Panics if `id` is not linked here. */
    void
    remove(RequestArena &arena, RequestId id)
    {
        Request &request = arena[id];
        PROSE_ASSERT(contains(arena, id),
                     "request ", id, " is not in this queue");
        if (request.prev != kNoRequest)
            arena[static_cast<std::size_t>(request.prev)].next =
                request.next;
        else
            head_ = request.next;
        if (request.next != kNoRequest)
            arena[static_cast<std::size_t>(request.next)].prev =
                request.prev;
        else
            tail_ = request.prev;
        request.prev = request.next = kNoRequest;
        --size_;
    }

    /** Linear membership probe (cheap for the assert-on-remove path:
     *  walks from `id`'s links, not the whole list). */
    bool
    contains(const RequestArena &arena, RequestId id) const
    {
        const Request &request = arena[id];
        if (request.prev == kNoRequest &&
            head_ != static_cast<std::int32_t>(id))
            return false;
        if (request.next == kNoRequest &&
            tail_ != static_cast<std::int32_t>(id))
            return false;
        return true;
    }

  private:
    std::int32_t head_ = kNoRequest;
    std::int32_t tail_ = kNoRequest;
    std::uint32_t size_ = 0;
};

} // namespace prose

#endif // PROSE_SERVE_QUEUE_HH
