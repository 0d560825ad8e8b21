#include "instance_pool.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace prose {

InstancePool::InstancePool(std::uint32_t count) : instances_(count) {}

void
InstancePool::armKills(
    const FaultInjector &injector, std::uint64_t arrivals,
    const std::function<double(std::uint64_t)> &arrivalSeconds)
{
    for (std::uint32_t i = 0; i < instances_.size(); ++i) {
        double kill_at = injector.instanceKillSeconds(i);
        const std::uint64_t kill_idx = injector.instanceKillArrival(i);
        if (kill_idx != FaultInjector::kNoArrivalKill &&
            kill_idx < arrivals)
            kill_at = std::min(kill_at, arrivalSeconds(kill_idx));
        instances_[i].killAt = kill_at;
    }
}

InstancePool::Event
InstancePool::next() const
{
    // Strict `<` keeps the first candidate of a tie: kills are scanned
    // before completions, each in instance order.
    Event event;
    for (std::uint32_t i = 0; i < instances_.size(); ++i)
        if (!instances_[i].dead && instances_[i].killAt < event.seconds)
            event = Event{ EventKind::Kill, instances_[i].killAt, i };
    for (std::uint32_t i = 0; i < instances_.size(); ++i)
        if (instances_[i].busy && instances_[i].freeAt < event.seconds)
            event = Event{ EventKind::Completion, instances_[i].freeAt, i };
    return event;
}

void
InstancePool::apply(const Event &event)
{
    PROSE_ASSERT(event.kind != EventKind::None, "no event to apply");
    Instance &instance = instances_[event.instance];
    done_.clear();
    dropped_.clear();
    if (event.kind == EventKind::Kill) {
        instance.dead = true;
        instance.killAt = std::numeric_limits<double>::infinity();
        ++killed_;
        for (const Member &member : instance.members)
            (member.endSeconds < event.seconds ? done_ : dropped_)
                .push_back(member);
        instance.members.clear();
    } else {
        done_.swap(instance.members);
    }
    instance.busy = false;
}

void
InstancePool::dispatch(std::uint32_t instance, std::vector<Member> members)
{
    Instance &target = instances_[instance];
    PROSE_ASSERT(!target.dead && !target.busy && !members.empty(),
                 "dispatch to instance ", instance,
                 " that is dead, busy or given no work");
    target.busy = true;
    target.freeAt = 0.0;
    for (const Member &member : members)
        target.freeAt = std::max(target.freeAt, member.endSeconds);
    target.members = std::move(members);
}

std::int32_t
InstancePool::firstFree() const
{
    for (std::uint32_t i = 0; i < instances_.size(); ++i)
        if (!instances_[i].dead && !instances_[i].busy)
            return static_cast<std::int32_t>(i);
    return -1;
}

std::vector<std::uint32_t>
InstancePool::alive() const
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < instances_.size(); ++i)
        if (!instances_[i].dead)
            out.push_back(i);
    return out;
}

bool
InstancePool::idle() const
{
    return std::none_of(instances_.begin(), instances_.end(),
                        [](const Instance &i) { return i.busy; });
}

} // namespace prose
