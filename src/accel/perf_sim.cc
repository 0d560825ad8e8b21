#include "perf_sim.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "common/logging.hh"
#include "common/random.hh"

namespace prose {

namespace {

/**
 * I/O-buffer mutex hold time per accelerator task dispatch: DMA
 * descriptor setup plus lock handoff. This is the thread-contention
 * cost that grows with thread count (Section 3.1).
 */
constexpr double kIoLockSeconds = 5e-6;

/**
 * Time for the link layer to declare a hung transfer dead and hand it
 * back for retry (watchdog granularity). Charged once per injected
 * timeout fault.
 */
constexpr double kTimeoutDetectSeconds = 50e-6;

/** Thread index of an empty wait queue's front. */
constexpr std::size_t kNoThread = std::numeric_limits<std::size_t>::max();

/** Campaign site code of an array type ('M', 'G', 'E'). */
char
typeCode(ArrayType type)
{
    return toString(type)[0];
}

/** Expand per-thread finish times into per-inference completion times:
 *  every sequence of a thread's slice finishes when the thread drains. */
void
expandInferenceEnds(SimReport &report,
                    const std::vector<std::uint64_t> &shares)
{
    PROSE_ASSERT(shares.size() == report.threadFinishSeconds.size(),
                 "thread share/finish mismatch");
    report.inferenceEndSeconds.clear();
    report.inferenceEndSeconds.reserve(report.inferences);
    for (std::size_t t = 0; t < shares.size(); ++t)
        report.inferenceEndSeconds.insert(
            report.inferenceEndSeconds.end(), shares[t],
            report.threadFinishSeconds[t]);
    PROSE_ASSERT(report.inferenceEndSeconds.size() == report.inferences,
                 "inference completion times do not cover the batch");
}

} // namespace

void
RetryPolicy::validate() const
{
    if (maxAttempts == 0)
        fatal("retry: max_attempts must be at least 1");
    if (!(backoffSeconds >= 0.0) || !std::isfinite(backoffSeconds))
        fatal("retry: negative or non-finite backoff");
    if (!(backoffFactor >= 1.0) || !std::isfinite(backoffFactor))
        fatal("retry: backoff factor must be >= 1");
    if (!(jitterFraction >= 0.0) || !(jitterFraction <= 1.0))
        fatal("retry: jitter fraction must be in [0, 1]");
}

double
RetryPolicy::delayFor(std::uint32_t retry, std::uint64_t seed,
                      std::uint64_t id) const
{
    double delay = backoffSeconds;
    for (std::uint32_t i = 0; i < retry; ++i)
        delay *= backoffFactor;
    if (jitterFraction > 0.0) {
        // Keyed on (seed, id, retry): the draw is independent of event
        // order, so replays and thread counts cannot perturb it.
        Rng rng(seed ^ (id * 0x9e3779b97f4a7c15ull + retry));
        delay *= 1.0 + jitterFraction * rng.uniform();
    }
    return delay;
}

ArrayType
arrayTypeFor(DataflowKind kind)
{
    switch (kind) {
      case DataflowKind::Dataflow1:
        return ArrayType::M;
      case DataflowKind::Dataflow2:
        return ArrayType::G;
      case DataflowKind::Dataflow3:
        return ArrayType::E;
      case DataflowKind::Host:
        break;
    }
    panic("host task has no array type");
}

double
SimReport::inferencesPerSecond() const
{
    return makespan > 0.0 ? static_cast<double>(inferences) / makespan
                          : 0.0;
}

double
SimReport::utilization(ArrayType type) const
{
    const std::size_t idx = typeIndex(type);
    if (makespan <= 0.0 || typeCounts[idx] == 0)
        return 0.0;
    return typeBusySeconds[idx] / (makespan * typeCounts[idx]);
}

PerfSim::PerfSim(ProseConfig config, SimOptions options)
    : config_(std::move(config)), timing_(config_.partialInputBuffer),
      options_(options)
{
    config_.validate();
}

PerfSim::TaskSeconds
PerfSim::accelTaskSeconds(const TaskCost &cost,
                          const ArrayGeometry &geometry,
                          std::uint32_t pool_count,
                          double bandwidth) const
{
    TaskSeconds seconds;
    // Output tiles are independent, so the pool's arrays split them
    // evenly; compute time divides by the pool size while the stream
    // times see the pool's aggregate lane share.
    seconds.computeSeconds = cost.computeSeconds(geometry) / pool_count;
    seconds.wireBytesIn = config_.link.wireBytes(cost.bytesIn);
    seconds.wireBytesOut = config_.link.wireBytes(cost.bytesOut);
    // The infinite link is the compute-bound limit: its stream stages
    // are exactly zero, which collapses every StreamMode to the same
    // bit-identical duration (docs/LINK_MODEL.md).
    if (!config_.link.isInfinite()) {
        seconds.streamInSeconds =
            static_cast<double>(seconds.wireBytesIn) / bandwidth;
        seconds.streamOutSeconds =
            static_cast<double>(seconds.wireBytesOut) / bandwidth;
    }
    const double compute = seconds.computeSeconds;
    const double stream_in = seconds.streamInSeconds;
    const double stream_out = seconds.streamOutSeconds;
    const double bound = std::max({ compute, stream_in, stream_out });
    switch (config_.streaming.mode) {
      case StreamMode::Serialized:
        seconds.arraySeconds = stream_in + compute + stream_out;
        break;
      case StreamMode::Ideal:
        seconds.arraySeconds = bound;
        seconds.prefetchSlackSeconds = compute;
        break;
      case StreamMode::DoubleBuffered: {
        // Transfers pipeline with compute at output-tile granularity:
        // steady state runs at the slowest stage; each non-bounding
        // stage contributes one chunk of fill/drain ramp. With zero
        // stream stages the ramp term is exactly 0.0, so the infinite
        // link reproduces the ideal duration bit-for-bit.
        const double chunks = static_cast<double>(
            std::max<std::uint64_t>(1, cost.tiles));
        seconds.fillSeconds = stream_in / chunks;
        seconds.drainSeconds = stream_out / chunks;
        seconds.arraySeconds =
            bound + (stream_in + compute + stream_out - bound) / chunks;
        seconds.prefetchSlackSeconds = std::min(
            compute,
            static_cast<double>(config_.streaming.bufferDepth - 1) *
                (compute / chunks));
        break;
      }
    }
    if (cost.hostSoftmaxElems > 0) {
        // Dataflow 3 serializes the issuing thread through the host
        // softmax between its two BMMs, but no accumulator state is
        // live during the trip, so the array itself can serve other
        // threads meanwhile.
        seconds.threadExtraSeconds =
            options_.host.softmaxSeconds(cost.hostSoftmaxElems);
    }
    return seconds;
}

template <typename Shape>
PerfSim::TenantLoad
PerfSim::sliceBatch(const Shape &shape,
                    OpTrace (*synthesize)(const Shape &)) const
{
    PROSE_ASSERT(shape.batch > 0, "empty batch");
    // Slice the batch across threads as evenly as possible; threads
    // beyond the batch size stay idle. The first `batch % used` threads
    // take one extra sequence, so there are at most two slice sizes,
    // and each gets one chain.
    TenantLoad load;
    load.inferences = shape.batch;
    const std::uint64_t used =
        std::min<std::uint64_t>(config_.threads, shape.batch);
    const std::uint64_t base = shape.batch / used;
    const std::uint64_t extra = shape.batch % used;
    auto buildChain = [&](std::uint64_t slice_batch) {
        Shape slice = shape;
        slice.batch = slice_batch;
        return DataflowBuilder{}.build(synthesize(slice));
    };
    if (extra > 0)
        load.chains.push_back(buildChain(base + 1));
    load.chains.push_back(buildChain(base));
    for (std::uint64_t t = 0; t < used; ++t) {
        load.shares.push_back(t < extra ? base + 1 : base);
        load.threadChain.push_back(extra > 0 && t >= extra ? 1 : 0);
    }
    return load;
}

SimReport
PerfSim::runSliced(TenantLoad load) const
{
    std::vector<TenantLoad> tenants;
    tenants.push_back(std::move(load));
    SimReport report = runTasksShared(tenants, nullptr);
    report.inferences = tenants[0].inferences;
    expandInferenceEnds(report, tenants[0].shares);
    return report;
}

SimReport
PerfSim::run(const BertShape &shape) const
{
    return runSliced(sliceBatch(shape, synthesizeBertTrace));
}

SimReport
PerfSim::runShared(const std::vector<BertShape> &tenant_shapes,
                   std::vector<SimReport> *per_tenant) const
{
    PROSE_ASSERT(!tenant_shapes.empty(), "no tenants to simulate");
    std::vector<TenantLoad> tenants;
    tenants.reserve(tenant_shapes.size());
    for (const BertShape &shape : tenant_shapes)
        tenants.push_back(sliceBatch(shape, synthesizeBertTrace));
    std::vector<SimReport> locals;
    SimReport report = runTasksShared(tenants, &locals);
    report.inferences = 0;
    report.inferenceEndSeconds.clear();
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        locals[t].inferences = tenants[t].inferences;
        expandInferenceEnds(locals[t], tenants[t].shares);
        report.inferences += tenants[t].inferences;
        report.inferenceEndSeconds.insert(
            report.inferenceEndSeconds.end(),
            locals[t].inferenceEndSeconds.begin(),
            locals[t].inferenceEndSeconds.end());
    }
    if (per_tenant)
        *per_tenant = std::move(locals);
    return report;
}

SimReport
PerfSim::runDecoder(const DecoderShape &shape) const
{
    return runSliced(sliceBatch(shape, synthesizeDecoderTrace));
}

SimReport
PerfSim::runTasks(
    const std::vector<std::vector<DataflowTask>> &thread_tasks) const
{
    std::vector<TenantLoad> tenants(1);
    tenants[0].chains = thread_tasks;
    for (std::size_t t = 0; t < thread_tasks.size(); ++t)
        tenants[0].threadChain.push_back(static_cast<std::uint32_t>(t));
    return runTasksShared(tenants, nullptr);
}

SimReport
PerfSim::runTasksShared(const std::vector<TenantLoad> &tenants,
                        std::vector<SimReport> *per_tenant) const
{
    PROSE_ASSERT(!tenants.empty(), "no tenants to schedule");
    const std::uint32_t tenant_count =
        static_cast<std::uint32_t>(tenants.size());

    SimReport report;
    report.tenantCount = tenant_count;
    std::vector<SimReport> locals(tenant_count);

    // Every tenant owns a private copy of the M, G and E pools; only
    // the link is shared. A pool runs a task on all its arrays at once
    // over its aggregate lane share.
    std::array<double, 3> pool_bw{};
    for (std::size_t idx = 0; idx < 3; ++idx) {
        const ArrayGroupSpec &pool = config_.groups[idx];
        report.typeCounts[idx] = pool.count * tenant_count;
        for (SimReport &local : locals)
            local.typeCounts[idx] = pool.count;
        pool_bw[idx] =
            config_.lanes.bandwidthFor(kArrayTypes[idx], config_.link);
    }
    for (SimReport &local : locals)
        local.tenantCount = tenant_count;

    // Per-tenant pool availability, per-type I/O buffer mutexes, and
    // host slots; shared full-duplex per-type link channels. Host slots
    // are interchangeable and nothing records which one ran a task, so
    // a tenant keeps only their free times, in a min-heap: a host task
    // takes the earliest-free slot, the heap's front. Channel
    // holds are placed so that within one tenant they always end by
    // the owning pool's free time — a single-tenant run never waits on
    // its own channels, which is what keeps runShared({x}) bit-exact
    // against run(x) (docs/LINK_MODEL.md).
    struct TenantResources
    {
        std::array<double, 3> poolFree{ { 0.0, 0.0, 0.0 } };
        std::array<double, 3> ioFree{ { 0.0, 0.0, 0.0 } };
        std::vector<double> hostFree;
    };
    std::vector<TenantResources> resources(tenant_count);
    for (TenantResources &r : resources)
        r.hostFree.assign(options_.host.spec().slots, 0.0);
    std::array<double, 3> link_in_free{ { 0.0, 0.0, 0.0 } };
    std::array<double, 3> link_out_free{ { 0.0, 0.0, 0.0 } };

    // Everything a dispatch needs that its start time cannot change,
    // once per distinct task: the pool it runs on, its TaskCost on that
    // pool's geometry, its durations with every array of the pool
    // alive, its FLOPs and, for host tasks, its duration. Threads with
    // identical slices share a chain, so a batch sliced over N threads
    // is costed once per slice size, not N times.
    struct TaskPlan
    {
        int pool = -1; ///< array-type pool index (0=M,1=G,2=E); -1 host
        TaskCost cost;
        TaskSeconds seconds;
        double flops = 0.0;
        double hostSeconds = 0.0;
    };
    std::vector<std::vector<std::vector<TaskPlan>>> plans(tenant_count);
    for (std::uint32_t ten = 0; ten < tenant_count; ++ten) {
        for (const std::vector<DataflowTask> &chain :
             tenants[ten].chains) {
            std::vector<TaskPlan> &chain_plans = plans[ten].emplace_back();
            chain_plans.reserve(chain.size());
            for (const DataflowTask &task : chain) {
                TaskPlan &plan = chain_plans.emplace_back();
                plan.flops = task.flops();
                if (task.kind == DataflowKind::Host) {
                    plan.hostSeconds =
                        options_.host.hostOpSeconds(task.ops.front());
                    continue;
                }
                const std::size_t idx =
                    typeIndex(arrayTypeFor(task.kind));
                const ArrayGroupSpec &pool = config_.groups[idx];
                plan.pool = static_cast<int>(idx);
                plan.cost = timing_.costTask(task, pool.geometry);
                plan.seconds = accelTaskSeconds(plan.cost, pool.geometry,
                                                pool.count, pool_bw[idx]);
            }
        }
    }

    // Flat thread list, tenant-major: with one tenant the global index
    // equals the legacy thread index, so both schedulers reproduce the
    // single-tenant dispatch order exactly.
    struct ThreadState
    {
        std::uint32_t tenant = 0;
        std::uint32_t local = 0;
        const std::vector<DataflowTask> *tasks = nullptr;
        const std::vector<TaskPlan> *plans = nullptr;
        std::size_t next = 0;
        double readyAt = 0.0;

        bool tasksRemaining() const { return next < tasks->size(); }
    };
    std::vector<ThreadState> threads;
    for (std::uint32_t ten = 0; ten < tenant_count; ++ten) {
        const TenantLoad &load = tenants[ten];
        for (std::size_t th = 0; th < load.threadChain.size(); ++th) {
            const std::uint32_t chain = load.threadChain[th];
            ThreadState &ts = threads.emplace_back();
            ts.tenant = ten;
            ts.local = static_cast<std::uint32_t>(th);
            ts.tasks = &load.chains[chain];
            ts.plans = &plans[ten][chain];
        }
    }

    /** Earliest dispatch for a thread's next task under current
     *  resource state. */
    struct Candidate
    {
        double start = 0.0;
        int arrayIndex = -1;
    };
    auto candidateFor = [&](std::size_t g) {
        const ThreadState &ts = threads[g];
        const TenantResources &res = resources[ts.tenant];
        Candidate c;
        c.arrayIndex = (*ts.plans)[ts.next].pool;
        if (c.arrayIndex < 0) {
            c.start = std::max(ts.readyAt, res.hostFree.front());
        } else {
            const std::size_t idx = static_cast<std::size_t>(c.arrayIndex);
            c.start = std::max({ ts.readyAt, res.poolFree[idx],
                                 res.ioFree[idx] });
        }
        return c;
    };

    auto dispatch = [&](std::size_t g, const Candidate &c) {
        const double best_start = c.start;
        const int best_array = c.arrayIndex;
        ThreadState &ts = threads[g];
        TenantResources &res = resources[ts.tenant];
        SimReport &local = locals[ts.tenant];
        const DataflowTask &task = (*ts.tasks)[ts.next];
        const TaskPlan &plan = (*ts.plans)[ts.next];
        double duration;
        double pool_end = 0.0;
        if (best_array < 0) {
            duration = plan.hostSeconds;
            std::pop_heap(res.hostFree.begin(), res.hostFree.end(),
                          std::greater<>{});
            res.hostFree.back() = best_start + duration;
            std::push_heap(res.hostFree.begin(), res.hostFree.end(),
                           std::greater<>{});
            report.hostBusySeconds += duration;
            local.hostBusySeconds += duration;
        } else {
            const std::size_t idx = static_cast<std::size_t>(best_array);
            const ArrayGroupSpec &pool = config_.groups[idx];
            const ArrayType type = kArrayTypes[idx];
            // Failover: tasks only ever map onto surviving pool
            // members, so a killed array degrades the pool's aggregate
            // compute rate instead of wedging the schedule. Only then
            // are the durations recosted, for the live arrays.
            const TaskCost &cost = plan.cost;
            std::uint32_t alive = pool.count;
            TaskSeconds seconds = plan.seconds;
            if (options_.injector) {
                const std::uint32_t dead =
                    options_.injector->deadArrays(typeCode(type),
                                                  best_start);
                if (dead >= alive)
                    fatal("fault campaign killed every ",
                          toString(type), "-type array by t=",
                          best_start, "s; nothing left to fail over to");
                if (dead > 0) {
                    alive -= dead;
                    seconds = accelTaskSeconds(cost, pool.geometry, alive,
                                               pool_bw[idx]);
                }
            }
            // Link-fault recovery: every faulted attempt charges its
            // detection cost (timeouts) plus exponential backoff and a
            // full re-stream/re-run of the task.
            double fault_extra = 0.0;
            if (options_.injector) {
                for (std::uint32_t attempt = 0;; ++attempt) {
                    const FaultInjector::LinkOutcome outcome =
                        options_.injector->sampleLinkTransfer(
                            typeCode(type));
                    if (!outcome.faulty())
                        break;
                    if (outcome.timeout) {
                        ++report.linkTimeouts;
                        fault_extra += kTimeoutDetectSeconds;
                    } else {
                        ++report.linkTransferErrors;
                    }
                    if (attempt + 1 >= options_.retry.maxAttempts) {
                        ++report.abandonedTransfers;
                        break;
                    }
                    ++report.taskRetries;
                    fault_extra += options_.retry.delayFor(attempt) +
                                   seconds.arraySeconds;
                }
            }
            // Shared-link arbitration. The stream-in hold occupies its
            // channel from the task start; waiting on another tenant's
            // transfer only stalls the array once the prefetch queue's
            // slack — (depth - 1) chunk-compute times — is exhausted.
            double wait_in = 0.0;
            double stall_in = 0.0;
            if (seconds.streamInSeconds > 0.0) {
                const double in_start =
                    std::max(best_start, link_in_free[idx]);
                wait_in = in_start - best_start;
                link_in_free[idx] = in_start + seconds.streamInSeconds;
                stall_in = std::max(
                    0.0, wait_in - seconds.prefetchSlackSeconds);
            }
            const double occupancy =
                seconds.arraySeconds + fault_extra + stall_in;
            // The stream-out hold is the occupancy's tail: results
            // drain as the last chunks complete, and a busy out
            // channel extends the pool occupancy by the wait.
            double wait_out = 0.0;
            if (seconds.streamOutSeconds > 0.0) {
                const double nominal = best_start + occupancy -
                                       seconds.streamOutSeconds;
                const double out_start =
                    std::max(nominal, link_out_free[idx]);
                wait_out = out_start - nominal;
                link_out_free[idx] =
                    out_start + seconds.streamOutSeconds;
            }
            const double total_occupancy = occupancy + wait_out;
            duration = total_occupancy + seconds.threadExtraSeconds;
            // The dispatching thread holds the type's I/O buffer mutex
            // while it sets up the transfer; the pool is released as
            // soon as its occupancy ends (the host-softmax tail of a
            // Dataflow 3 only blocks the issuing thread).
            res.ioFree[idx] = best_start + kIoLockSeconds;
            res.poolFree[idx] = best_start + total_occupancy;
            pool_end = res.poolFree[idx];

            const double busy = total_occupancy * alive;
            report.typeBusySeconds[idx] += busy;
            local.typeBusySeconds[idx] += busy;
            report.retrySeconds += fault_extra;
            local.retrySeconds += fault_extra;
            report.bytesIn += cost.bytesIn;
            report.bytesOut += cost.bytesOut;
            local.bytesIn += cost.bytesIn;
            local.bytesOut += cost.bytesOut;
            report.wireBytesIn += seconds.wireBytesIn;
            report.wireBytesOut += seconds.wireBytesOut;
            local.wireBytesIn += seconds.wireBytesIn;
            local.wireBytesOut += seconds.wireBytesOut;
            report.fillSeconds += seconds.fillSeconds;
            report.drainSeconds += seconds.drainSeconds;
            local.fillSeconds += seconds.fillSeconds;
            local.drainSeconds += seconds.drainSeconds;
            report.linkWaitSeconds += wait_in + wait_out;
            local.linkWaitSeconds += wait_in + wait_out;
            report.prefetchStallSeconds += stall_in;
            local.prefetchStallSeconds += stall_in;
            report.hostBusySeconds += seconds.threadExtraSeconds;
            local.hostBusySeconds += seconds.threadExtraSeconds;
        }
        report.totalFlops += plan.flops;
        local.totalFlops += plan.flops;
        ++report.taskCount;
        ++local.taskCount;
        const double end = best_start + duration;
        ts.readyAt = end;
        ++ts.next;
        report.makespan = std::max(report.makespan, end);
        local.makespan = std::max(local.makespan, end);

        if (options_.recordSchedule) {
            ScheduledItem item;
            item.tenant = ts.tenant;
            item.thread = ts.local;
            item.kind = task.kind;
            item.sublayer = task.sublayer;
            item.layer = task.layer;
            item.arrayIndex = best_array;
            item.start = best_start;
            item.end = end;
            item.poolEnd = best_array >= 0 ? pool_end : end;
            report.schedule.push_back(item);
        }
    };

    if (options_.referenceScheduler) {
        // Reference next-event selection: O(threads) scan per dispatch,
        // kept as the differential baseline for the wait queues below.
        const double inf = std::numeric_limits<double>::infinity();
        while (true) {
            double best_start = inf;
            std::size_t best_thread = 0;
            Candidate best;
            for (std::size_t g = 0; g < threads.size(); ++g) {
                if (!threads[g].tasksRemaining())
                    continue;
                const Candidate c = candidateFor(g);
                if (c.start < best_start) {
                    best_start = c.start;
                    best_thread = g;
                    best = c;
                }
            }
            if (best_start == inf)
                break; // all threads drained
            dispatch(best_thread, best);
        }
    } else {
        // Per-resource wait queues. A waiting thread's start is
        // max(readyAt, R), where R is its resource's free time: the
        // later of the pool and its I/O mutex, or the host heap's
        // front. Resources are private per tenant and R moves only
        // when that resource dispatches, and never back, so each keeps
        // the threads it holds in two sets: `pending`, a heap by
        // (readyAt, thread), for threads not yet ready at R, and
        // `ready`, a bit set by thread index, for those that are (they
        // all start exactly at R). A resource's earliest (start,
        // thread), its front, is R and its lowest ready thread, or else
        // the pending front. A dispatch changes only the dispatching
        // resource's R and the contents of the thread's next resource,
        // so only those two fronts are recomputed. The minimum over the
        // fronts is the reference scan's earliest-start /
        // lowest-thread-index pick, so both schedulers dispatch in the
        // same order and no key is ever re-queued.
        constexpr std::size_t kResources = 4; // pools M, G, E; host
        using Pending = std::pair<double, std::size_t>;
        // (time, thread) order, spelled out: cheaper than the pair's
        // synthesized three-way comparison.
        auto later = [](const Pending &a, const Pending &b) {
            return a.first > b.first ||
                   (a.first == b.first && a.second > b.second);
        };
        struct WaitQueues
        {
            std::priority_queue<Pending, std::vector<Pending>,
                                decltype(later)>
                pending;
            /** Bit g is thread g, so the lowest set bit is the lowest
             *  ready thread index. */
            std::vector<std::uint64_t> ready;
            double free = 0.0; ///< R
            /** Earliest (start, thread), kNoThread when empty. */
            Pending front;
            bool frontReady = false; ///< front is a ready thread

            /** Move thread g into or out of the ready set. */
            void
            flip(std::size_t g)
            {
                ready[g / 64] ^= std::uint64_t{ 1 } << (g % 64);
            }
            /** Admit the pending threads ready at R, then recompute
             *  the front. */
            void
            refresh()
            {
                while (!pending.empty() && pending.top().first <= free) {
                    flip(pending.top().second);
                    pending.pop();
                }
                for (std::size_t w = 0; w < ready.size(); ++w) {
                    if (ready[w]) {
                        front = { free,
                                  w * 64 + static_cast<std::size_t>(
                                               std::countr_zero(ready[w])) };
                        frontReady = true;
                        return;
                    }
                }
                frontReady = false;
                front = pending.empty()
                            ? Pending{ std::numeric_limits<double>::infinity(),
                                       kNoThread }
                            : pending.top();
            }
        };
        std::vector<WaitQueues> queues(tenant_count * kResources);
        for (WaitQueues &q : queues)
            q.ready.assign((threads.size() + 63) / 64, 0);
        auto resourceOf = [&](const ThreadState &ts) {
            const int pool = (*ts.plans)[ts.next].pool;
            return ts.tenant * kResources +
                   (pool < 0 ? kResources - 1
                             : static_cast<std::size_t>(pool));
        };
        auto resourceFree = [&](std::size_t r) {
            const TenantResources &res = resources[r / kResources];
            const std::size_t slot = r % kResources;
            if (slot == kResources - 1)
                return res.hostFree.front();
            return std::max(res.poolFree[slot], res.ioFree[slot]);
        };
        auto enqueue = [&](std::size_t g) -> WaitQueues * {
            const ThreadState &ts = threads[g];
            if (!ts.tasksRemaining())
                return nullptr;
            WaitQueues &q = queues[resourceOf(ts)];
            q.pending.emplace(ts.readyAt, g);
            return &q;
        };
        for (std::size_t g = 0; g < threads.size(); ++g)
            enqueue(g);
        for (WaitQueues &q : queues)
            q.refresh();
        while (true) {
            WaitQueues *best = &queues.front();
            for (WaitQueues &q : queues)
                if (later(best->front, q.front))
                    best = &q;
            const auto [best_start, best_thread] = best->front;
            if (best_thread == kNoThread)
                break; // all threads drained
            if (best->frontReady)
                best->flip(best_thread);
            else
                best->pending.pop();
            const Candidate c = candidateFor(best_thread);
            PROSE_ASSERT(c.start == best_start,
                         "wait-queue start ", best_start,
                         " differs from the thread's candidate ",
                         c.start);
            dispatch(best_thread, c);
            best->free = resourceFree(
                static_cast<std::size_t>(best - queues.data()));
            WaitQueues *next = enqueue(best_thread);
            best->refresh();
            if (next && next != best)
                next->refresh();
        }
    }

    report.threadFinishSeconds.reserve(threads.size());
    for (const ThreadState &ts : threads) {
        report.threadFinishSeconds.push_back(ts.readyAt);
        locals[ts.tenant].threadFinishSeconds.push_back(ts.readyAt);
    }

    const double host_capacity =
        static_cast<double>(options_.host.spec().slots) * tenant_count;
    if (report.makespan > 0.0) {
        report.cpuDuty =
            std::min(1.0, report.hostBusySeconds /
                              (report.makespan * host_capacity));
    }
    for (SimReport &local : locals) {
        if (local.makespan > 0.0)
            local.cpuDuty = std::min(
                1.0, local.hostBusySeconds /
                         (local.makespan * options_.host.spec().slots));
    }
    if (options_.injector) {
        for (std::size_t idx = 0; idx < 3; ++idx)
            report.deadArrays[idx] = std::min(
                report.typeCounts[idx],
                options_.injector->deadArrays(typeCode(kArrayTypes[idx]),
                                              report.makespan));
    }
    if (per_tenant)
        *per_tenant = std::move(locals);
    return report;
}

} // namespace prose
