/**
 * @file
 * The fleet's instance pool: which ProSE instances are dead, which are
 * busy and until when, and when each one is scheduled to die. Both
 * fleet models run on it: ServeSim dispatches open-loop request
 * batches, and ProseSystem shards one closed batch across the
 * instances. They therefore share one kill rule and one event order.
 *
 * A dispatch hands an instance its members, each with its absolute end
 * time, and the instance stays busy until the last of them ends. A kill
 * at time t completes the members that end before t and drops the rest.
 * What becomes of dropped work (retry, re-shard, shed) is up to the
 * caller.
 */

#ifndef PROSE_ACCEL_INSTANCE_POOL_HH
#define PROSE_ACCEL_INSTANCE_POOL_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "fault/fault_injector.hh"

namespace prose {

/** Per-instance dead/busy/free-at state of a fleet. */
class InstancePool
{
  public:
    /** One unit of dispatched work and the moment it finishes. */
    struct Member
    {
        std::uint64_t id = 0;
        double endSeconds = 0.0;
    };

    enum class EventKind
    {
        Kill,       ///< an instance dies
        Completion, ///< a busy instance finishes its last member
        None,
    };

    /** The pool's next event (kind None when nothing is pending). */
    struct Event
    {
        EventKind kind = EventKind::None;
        double seconds = std::numeric_limits<double>::infinity();
        std::uint32_t instance = 0;
    };

    explicit InstancePool(std::uint32_t count);

    /**
     * Resolve each instance's kill time from a campaign: its timed kill
     * or, if earlier, the arrival time `arrivalSeconds(n)` of request n
     * for an arrival-indexed kill. An index at or past `arrivals` never
     * fires.
     */
    void armKills(const FaultInjector &injector, std::uint64_t arrivals,
                  const std::function<double(std::uint64_t)> &
                      arrivalSeconds);

    /**
     * The earliest kill or completion. Ties go to kills before
     * completions (chaos lands before the work it disrupts), then to
     * the lower instance index.
     */
    Event next() const;

    /**
     * Apply an event from next(). The members it finishes land in
     * done() and the members it drops in dropped(); each call replaces
     * both lists.
     */
    void apply(const Event &event);
    const std::vector<Member> &done() const { return done_; }
    const std::vector<Member> &dropped() const { return dropped_; }

    /** Start `members` on an alive idle instance. */
    void dispatch(std::uint32_t instance, std::vector<Member> members);

    /** Lowest-index alive idle instance, or -1 when there is none. */
    std::int32_t firstFree() const;
    /** Alive instances, lowest index first. */
    std::vector<std::uint32_t> alive() const;
    /** No instance is busy. */
    bool idle() const;
    std::uint32_t killed() const { return killed_; }

  private:
    struct Instance
    {
        bool dead = false;
        bool busy = false;
        double freeAt = 0.0; ///< latest member end while busy
        double killAt = std::numeric_limits<double>::infinity();
        std::vector<Member> members;
    };

    std::vector<Instance> instances_;
    std::vector<Member> done_;
    std::vector<Member> dropped_;
    std::uint32_t killed_ = 0;
};

} // namespace prose

#endif // PROSE_ACCEL_INSTANCE_POOL_HH
