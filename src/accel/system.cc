#include "system.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "instance_pool.hh"

namespace prose {

namespace {

/**
 * The one host CPU every instance shares: softmax/Other work from all
 * of them lands on it, so each alive instance gets its share of the
 * host's slots (see ProseSystem::run).
 */
const HostSpec kHost{};

} // namespace

double
SystemReport::inferencesPerSecond() const
{
    return makespan > 0.0 ? static_cast<double>(inferences) / makespan
                          : 0.0;
}

double
SystemReport::efficiency() const
{
    PROSE_ASSERT(systemWatts > 0.0, "system power not computed");
    return inferencesPerSecond() / systemWatts;
}

ProseSystem::ProseSystem(SystemConfig config)
    : config_(std::move(config))
{
    PROSE_ASSERT(config_.instanceCount > 0,
                 "a system needs at least one instance");
    config_.instance.validate();
}

SystemReport
ProseSystem::run(const BertShape &shape, FaultInjector *injector) const
{
    PROSE_ASSERT(shape.batch > 0, "empty batch");
    const std::uint32_t used = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config_.instanceCount, shape.batch));

    SimOptions options;
    options.injector = injector;

    // A closed batch: every inference arrives at t=0, so an arrival-
    // indexed kill inside the batch fires at t=0 too.
    InstancePool pool(used);
    if (injector)
        pool.armKills(*injector, shape.batch,
                      [](std::uint64_t) { return 0.0; });

    SystemReport report;
    report.inferences = shape.batch;
    report.completionSeconds.resize(shape.batch);
    std::vector<std::uint64_t> pending(shape.batch);
    std::iota(pending.begin(), pending.end(), std::uint64_t{ 0 });
    std::uint64_t stamped = 0;
    double now = 0.0;
    double healthy_makespan = 0.0;
    double first_reshard = -1.0;
    double host_busy = 0.0;
    for (;;) {
        if (pool.idle()) {
            if (pending.empty())
                break;
            // Shard the pending work over the alive instances; the
            // shared host splits its slots across them. Each share runs
            // its whole slots at the host's own per-slot rate: when the
            // alive count does not divide the slots, the leftover ones
            // sit idle rather than speeding up every share.
            const std::vector<std::uint32_t> alive = pool.alive();
            if (alive.empty())
                fatal("fault campaign killed every ProSE instance; "
                      "nothing left to re-shard onto");
            const bool reshard = !report.perInstance.empty();
            if (reshard && first_reshard < 0.0)
                first_reshard = now;
            const std::uint32_t ways =
                static_cast<std::uint32_t>(alive.size());
            HostSpec shared = kHost;
            shared.slots = std::max<std::uint32_t>(1, shared.slots / ways);
            shared.elemThroughput =
                std::min(kHost.elemThroughput / ways,
                         kHost.slotThroughput() * shared.slots);
            options.host = HostModel(shared);
            std::size_t next = 0;
            for (std::uint32_t j = 0; j < ways; ++j) {
                BertShape slice = shape;
                slice.batch = pending.size() / ways +
                              (j < pending.size() % ways ? 1 : 0);
                if (slice.batch == 0)
                    continue;
                PerfSim sim(config_.instance, options);
                SimReport shard = sim.run(slice);
                std::vector<InstancePool::Member> members;
                members.reserve(slice.batch);
                for (const double end : shard.inferenceEndSeconds)
                    members.push_back({ pending[next++], now + end });
                pool.dispatch(alive[j], std::move(members));
                if (!reshard)
                    healthy_makespan =
                        std::max(healthy_makespan, shard.makespan);
                host_busy += shard.hostBusySeconds;
                report.linkTransferErrors += shard.linkTransferErrors;
                report.linkTimeouts += shard.linkTimeouts;
                report.taskRetries += shard.taskRetries;
                report.perInstance.push_back(std::move(shard));
            }
            pending.clear();
        }
        const InstancePool::Event event = pool.next();
        now = event.seconds;
        pool.apply(event);
        for (const InstancePool::Member &member : pool.done())
            report.completionSeconds[member.id] = member.endSeconds;
        stamped += pool.done().size();
        for (const InstancePool::Member &member : pool.dropped())
            pending.push_back(member.id);
        report.reshardedInferences += pool.dropped().size();
    }
    PROSE_ASSERT(stamped == report.inferences,
                 "per-inference completion times do not cover the "
                 "batch: ",
                 stamped, " of ", report.inferences);
    report.makespan = now;
    report.failedInstances = pool.killed();
    if (first_reshard >= 0.0)
        report.reshardSeconds = report.makespan - first_reshard;
    if (report.makespan > 0.0) {
        report.throughputRetention = healthy_makespan / report.makespan;
        // Combined host duty over the whole host's capacity.
        report.hostDuty = std::min(
            1.0, host_busy / (report.makespan * kHost.slots));
    }

    const PowerModel power;
    const double arrays =
        used * power.arrayPowerWatts(config_.instance.groups,
                                     config_.instance.partialInputBuffer);
    report.systemWatts = arrays +
                         report.hostDuty * kHostCpuActiveWatts +
                         kHostDramWatts;
    return report;
}

} // namespace prose
