#include "serve_sim.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "accel/batcher.hh"
#include "accel/instance_pool.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "service_model.hh"

namespace prose {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Event categories in deterministic same-time processing order. */
enum class EventKind
{
    Fleet,      ///< an instance dies or finishes its batch (chaos first)
    RetryReady, ///< a backed-off request re-enters admission
    Arrival,    ///< the next open-loop request arrives
    CloseTimer, ///< a bucket's latest safe close time has come
    None,
};

} // namespace

void
ServeSpec::validate() const
{
    arrivals.validate();
    batcher.validate();
    retry.validate();
    if (!(sloSeconds > 0.0) || !std::isfinite(sloSeconds))
        fatal("serve: SLO must be a positive number of seconds");
    if (instanceCount == 0)
        fatal("serve: zero instances");
    if (linkTenantsPerHost == 0)
        fatal("serve: zero link tenants per host");
    if (!(dispatchOverheadSeconds >= 0.0))
        fatal("serve: negative dispatch overhead");
}

std::string
ServeReport::describe() const
{
    std::ostringstream os;
    os.precision(12);
    os << "serve: offered=" << offered << " done=" << done
       << " timed_out=" << timedOut << " shed=" << shed
       << " lost=" << lost() << '\n'
       << "shed: admission=" << shedAdmission
       << " overflow=" << shedOverflow
       << " retry_budget=" << shedRetryBudget << '\n'
       << "timeout: at_close=" << expiredAtClose
       << " late=" << completedLate << " on_retry=" << timedOutOnRetry
       << '\n'
       << "chaos: retries=" << retries
       << " instances_killed=" << instancesKilled << '\n'
       << "link: wait=" << linkWaitSeconds << "s\n"
       << "batches: count=" << batches << " mean_fill=" << meanBatchFill
       << " max_queue_depth=" << maxQueueDepthSeen << '\n'
       << "latency: p50=" << p50Seconds << "s p99=" << p99Seconds
       << "s p999=" << p999Seconds << "s\n"
       << "goodput: " << goodputPerSecond
       << "/s attainment=" << sloAttainment
       << " horizon=" << horizonSeconds << "s\n";
    return os.str();
}

double
sloRetention(const ServeReport &healthy, const ServeReport &chaos)
{
    PROSE_ASSERT(healthy.goodputPerSecond > 0.0,
                 "SLO retention against a zero-goodput healthy run");
    return chaos.goodputPerSecond / healthy.goodputPerSecond;
}

ServeSim::ServeSim(ServeSpec spec) : spec_(std::move(spec))
{
    spec_.validate();
}

ServeReport
ServeSim::run(FaultInjector *injector) const
{
    ServeReport report;
    RequestArena arena = generateArrivals(spec_.arrivals, spec_.sloSeconds);
    report.offered = arena.size();

    const ServiceModel model(spec_.instance, spec_.model,
                             spec_.dispatchOverheadSeconds);
    ServeBatcher batcher(spec_.batcher, model);

    InstancePool pool(spec_.instanceCount);
    if (injector != nullptr)
        pool.armKills(*injector, arena.size(), [&](std::uint64_t n) {
            return arena[n].arrivalSeconds;
        });

    // Pending retries ordered by (ready time, request id): a std::set
    // gives the event loop a deterministic earliest-first view with
    // O(log n) insert and no heap-order ambiguity on ties.
    std::set<std::pair<double, RequestId>> retryQueue;

    double now = 0.0;
    double fill_sum = 0.0;
    std::size_t next_arrival = 0;

    const auto bucketLen = [&](const Request &request) {
        return bucketForTokens(request.residues + 2,
                               spec_.batcher.buckets);
    };

    // Admission decision for one QUEUED request (fresh arrival or a
    // retry re-entering the front door).
    const auto admitOne = [&](RequestId id, double at) {
        Request &request = arena[id];
        const double best_case = model.seconds(bucketLen(request), 1);
        const AdmissionDecision decision =
            admit(spec_.admission, request, at, batcher.queued(),
                  best_case);
        if (decision == AdmissionDecision::ShedSelf) {
            transition(request, RequestState::Shed, at);
            ++report.shedAdmission;
            ++report.shed;
            return;
        }
        if (decision == AdmissionDecision::ShedOldest) {
            const std::int32_t victim = batcher.shedVictim(arena);
            PROSE_ASSERT(victim != kNoRequest,
                         "full queue with no shed victim");
            const RequestId victim_id = static_cast<RequestId>(victim);
            batcher.remove(arena, victim_id);
            transition(arena[victim_id], RequestState::Shed, at);
            ++report.shedOverflow;
            ++report.shed;
        }
        transition(request, RequestState::Admitted, at);
        batcher.enqueue(arena, id);
        report.maxQueueDepthSeen =
            std::max(report.maxQueueDepthSeen, batcher.queued());
    };

    // A dying instance drops its in-flight batch member: schedule a
    // backed-off retry, or account the loss honestly.
    const auto dropWork = [&](RequestId id, double at) {
        Request &request = arena[id];
        transition(request, RequestState::Retried, at);
        if (request.attempts >= spec_.retry.maxAttempts) {
            transition(request, RequestState::Shed, at);
            ++report.shedRetryBudget;
            ++report.shed;
            return;
        }
        const double delay = spec_.retry.delayFor(
            request.attempts - 1, spec_.arrivals.seed, id);
        const double ready_at = at + delay;
        const double best_case = model.seconds(bucketLen(request), 1);
        if (ready_at + best_case > request.deadlineSeconds) {
            transition(request, RequestState::TimedOut, at);
            ++report.timedOutOnRetry;
            ++report.timedOut;
            return;
        }
        retryQueue.emplace(ready_at, id);
        ++report.retries;
    };

    // Close and dispatch every batch that should go out at time `at`.
    // `force` is the end-of-stream flush: no arrivals or retries remain,
    // so waiting for fuller batches can only cost deadline slack.
    const auto dispatchReady = [&](double at, bool force) {
        for (;;) {
            const std::int32_t slot = pool.firstFree();
            if (slot < 0 || batcher.queued() == 0)
                return;
            ClosedBatch batch;
            if (!batcher.close(arena, at, batch, force))
                return;
            report.expiredAtClose += batch.expired.size();
            report.timedOut += batch.expired.size();
            if (batch.members.empty())
                continue; // every member expired; nothing to run
            for (const RequestId id : batch.members) {
                transition(arena[id], RequestState::Running, at);
                arena[id].instance = slot;
            }
            double free_at = at + batch.serviceSeconds;
            if (spec_.linkTenantsPerHost > 1) {
                // Price the batch under worst-case link sharing: every
                // co-tenant of this host streams the same shape
                // concurrently. The batcher's close decisions still
                // use the dedicated-link model (optimistic), so the
                // contended duration only stretches the instance
                // occupancy and the members' completion times.
                const SharedServiceSeconds shared = model.sharedSeconds(
                    batch.paddedLength, batch.members.size(),
                    spec_.linkTenantsPerHost);
                free_at = at + shared.seconds;
                report.linkWaitSeconds += shared.linkWaitSeconds;
            }
            // Every member of a serving batch ends when the batch does.
            std::vector<InstancePool::Member> members;
            members.reserve(batch.members.size());
            for (const RequestId id : batch.members)
                members.push_back({ id, free_at });
            pool.dispatch(static_cast<std::uint32_t>(slot),
                          std::move(members));
            ++report.batches;
            fill_sum += static_cast<double>(batch.members.size()) /
                        static_cast<double>(spec_.batcher.maxBatch);
        }
    };

    for (;;) {
        // Next event: earliest time wins; at equal times the category
        // order is kills -> completions -> retries -> arrivals -> close
        // timers, so chaos lands before the work it disrupts and the
        // loop is bit-identical however the doubles tie.
        EventKind kind = EventKind::None;
        double when = kInf;

        const auto consider = [&](EventKind k, double t) {
            if (t < when) {
                kind = k;
                when = t;
            }
        };

        const InstancePool::Event fleet = pool.next();
        consider(EventKind::Fleet, fleet.seconds);
        if (!retryQueue.empty())
            consider(EventKind::RetryReady, retryQueue.begin()->first);
        if (next_arrival < arena.size())
            consider(EventKind::Arrival,
                     arena[next_arrival].arrivalSeconds);
        const bool stream_drained =
            next_arrival >= arena.size() && retryQueue.empty();
        if (batcher.queued() > 0 && pool.firstFree() >= 0) {
            const double close_at =
                stream_drained
                    ? now
                    : std::max(now, batcher.nextCloseSeconds(arena));
            consider(EventKind::CloseTimer, close_at);
        }

        if (kind == EventKind::None) {
            // No future events. Anything still queued is unreachable
            // (every instance is dead): account it as timed out at its
            // deadline rather than losing it.
            for (Request &request : arena) {
                if (isTerminal(request.state))
                    continue;
                PROSE_ASSERT(request.state == RequestState::Admitted,
                             "drained a ", toString(request.state),
                             " request");
                batcher.remove(arena, request.id);
                transition(request, RequestState::TimedOut,
                           std::max(now, request.deadlineSeconds));
                ++report.timedOut;
            }
            break;
        }

        now = when;
        switch (kind) {
          case EventKind::Fleet:
            pool.apply(fleet);
            for (const InstancePool::Member &member : pool.done()) {
                Request &request = arena[member.id];
                const double at = member.endSeconds;
                if (at <= request.deadlineSeconds) {
                    transition(request, RequestState::Done, at);
                    ++report.done;
                } else {
                    transition(request, RequestState::TimedOut, at);
                    ++report.completedLate;
                    ++report.timedOut;
                }
            }
            for (const InstancePool::Member &member : pool.dropped())
                dropWork(static_cast<RequestId>(member.id), now);
            break;
          case EventKind::RetryReady: {
            const RequestId id = retryQueue.begin()->second;
            retryQueue.erase(retryQueue.begin());
            transition(arena[id], RequestState::Queued, now);
            admitOne(id, now);
            break;
          }
          case EventKind::Arrival: {
            const RequestId id =
                static_cast<RequestId>(next_arrival++);
            admitOne(id, now);
            break;
          }
          case EventKind::CloseTimer:
            break; // dispatchReady below does the work
          case EventKind::None:
            break;
        }
        dispatchReady(now, stream_drained);
    }

    // Final accounting from the arena: conservation, horizon,
    // latencies in arrival order.
    report.instancesKilled = pool.killed();
    std::uint64_t done_check = 0;
    for (const Request &request : arena) {
        PROSE_ASSERT(isTerminal(request.state),
                     "request ", request.id, " ended the run ",
                     toString(request.state));
        report.horizonSeconds =
            std::max(report.horizonSeconds, request.finishedSeconds);
        if (request.state == RequestState::Done) {
            ++done_check;
            report.latencies.push_back(request.latencySeconds());
        }
    }
    PROSE_ASSERT(done_check == report.done && report.lost() == 0,
                 "request conservation violated: offered ",
                 report.offered, ", done ", report.done, ", timed out ",
                 report.timedOut, ", shed ", report.shed);

    if (!report.latencies.empty()) {
        report.p50Seconds = percentile(report.latencies, 50.0);
        report.p99Seconds = percentile(report.latencies, 99.0);
        report.p999Seconds = percentile(report.latencies, 99.9);
    }
    if (report.batches > 0)
        report.meanBatchFill =
            fill_sum / static_cast<double>(report.batches);
    if (report.horizonSeconds > 0.0)
        report.goodputPerSecond = static_cast<double>(report.done) /
                                  report.horizonSeconds;
    if (report.offered > 0)
        report.sloAttainment = static_cast<double>(report.done) /
                               static_cast<double>(report.offered);
    return report;
}

} // namespace prose
