/**
 * @file
 * The open-loop serving simulator: an explicit-next-event loop in front
 * of the PerfSim-backed service model that turns "a batch takes X
 * seconds" into "millions of users see these tail latencies while
 * instances die".
 *
 * One run composes the whole serve stack:
 *
 *   arrivals (serve/arrival.hh, seeded)  ->  admission (bounded queue,
 *   deadline-aware, oldest-first shed)  ->  dynamic batcher
 *   (serve/serve_batcher.hh, SLO-aware close, overload degradation)
 *   ->  instance pool (accel/instance_pool.hh, shared with
 *   ProseSystem; lowest-free-index dispatch)  ->  completion / chaos
 *   (FaultInjector instance kills, timed or arrival-indexed; in-flight
 *   work of a dead instance retries with exponential backoff +
 *   deterministic jitter or is accounted shed/timed-out).
 *
 * Everything is simulated virtual time on one thread: a run is
 * bit-identical for any PROSE_THREADS and any host, which is what lets
 * the chaos acceptance test pin "SLO retention >= 0.9" as an equality-
 * grade regression gate rather than a flaky statistical bound.
 *
 * Conservation law: every generated request ends in exactly one of
 * DONE / TIMED_OUT / SHED. ServeReport::lost() is asserted zero at the
 * end of every run — a request the chaos machinery loses track of is a
 * simulator bug, not a statistic.
 */

#ifndef PROSE_SERVE_SERVE_SIM_HH
#define PROSE_SERVE_SERVE_SIM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "accel/perf_sim.hh"
#include "admission.hh"
#include "arrival.hh"
#include "fault/fault_injector.hh"
#include "request.hh"
#include "serve_batcher.hh"
#include "trace/dataflow.hh"

namespace prose {

/** Everything one serving run needs. */
struct ServeSpec
{
    ArrivalSpec arrivals;
    ServeBatcherSpec batcher;
    AdmissionSpec admission;

    /** Default per-request latency SLO (deadline = arrival + slo). */
    double sloSeconds = 0.05;

    /** The serving fleet: identical instances. */
    std::uint32_t instanceCount = 4;
    ProseConfig instance = ProseConfig::bestPerf();

    /**
     * Instances whose transfers share one physical host link. 1 (the
     * default) keeps every instance on a dedicated link — the legacy
     * uniform-progress model, bit-identical to before the knob
     * existed. K > 1 prices every batch as if K tenants stream the
     * same shape concurrently through PerfSim::runShared's
     * deterministic link arbitration, and the per-request link wait
     * lands in ServeReport::linkWaitSeconds (docs/LINK_MODEL.md).
     */
    std::uint32_t linkTenantsPerHost = 1;

    /** Served model shape (batch/seqLen overridden per bucket batch). */
    BertShape model{ 2, 768, 12, 3072, 1, 128 };

    /** Batch-close + DMA-descriptor overhead per dispatch. */
    double dispatchOverheadSeconds = 2e-5;

    void validate() const;
};

/** Aggregated result of one serving run. */
struct ServeReport
{
    /** @name Request accounting (conservation: see lost()) @{ */
    std::uint64_t offered = 0;   ///< requests in the arrival stream
    std::uint64_t done = 0;      ///< completed within deadline
    std::uint64_t timedOut = 0;  ///< missed deadline (any stage)
    std::uint64_t shed = 0;      ///< dropped by policy (any stage)
    /** @} */

    /** @name Drop/miss decomposition @{ */
    std::uint64_t shedAdmission = 0;   ///< hopeless deadline at admit
    std::uint64_t shedOverflow = 0;    ///< bounded-queue oldest-first
    std::uint64_t shedRetryBudget = 0; ///< attempts exhausted
    std::uint64_t expiredAtClose = 0;  ///< timed out inside a batch
    std::uint64_t completedLate = 0;   ///< ran but finished past SLO
    std::uint64_t timedOutOnRetry = 0; ///< deadline died with instance
    /** @} */

    /** @name Chaos/retry accounting @{ */
    std::uint64_t retries = 0;         ///< re-queued dispatch attempts
    std::uint32_t instancesKilled = 0;
    /** @} */

    /** @name Batching/queueing shape @{ */
    std::uint64_t batches = 0;
    double meanBatchFill = 0.0;   ///< sequences per batch / maxBatch
    std::uint64_t maxQueueDepthSeen = 0;
    /** @} */

    /** @name Link contention (zero unless linkTenantsPerHost > 1) @{ */
    /** Summed per-batch mean link arbitration wait (the contended
     *  service model's per-tenant share, once per dispatched batch). */
    double linkWaitSeconds = 0.0;
    /** @} */

    /** @name Latency + goodput @{ */
    double p50Seconds = 0.0;   ///< over all completed requests
    double p99Seconds = 0.0;
    double p999Seconds = 0.0;
    double horizonSeconds = 0.0;    ///< last terminal event
    double goodputPerSecond = 0.0;  ///< done / horizon
    /** SLO attainment over *offered* load: done / offered. */
    double sloAttainment = 0.0;
    /** @} */

    /** Latencies of completed requests, arrival order (percentile
     *  source; kept for richer reporting downstream). */
    std::vector<double> latencies;

    /** Requests unaccounted for — asserted zero after every run. */
    std::uint64_t lost() const
    {
        return offered - done - timedOut - shed;
    }

    /** Canonical multi-line text form; bit-identical across replays of
     *  the same spec (the determinism-test comparison unit). */
    std::string describe() const;
};

/**
 * SLO-retention ratio of a chaos run against its healthy twin:
 * chaos goodput / healthy goodput. The headline "millions of users"
 * robustness metric; 1.0 means the fleet hid the failure entirely.
 */
double sloRetention(const ServeReport &healthy,
                    const ServeReport &chaos);

/** The serving front end. */
class ServeSim
{
  public:
    explicit ServeSim(ServeSpec spec);

    /**
     * Run, healthy or under a fault campaign. Only instance kills apply
     * to the serving layer (timed kills fire at their simulated second;
     * arrival-indexed kills fire when request #N arrives); link/array
     * faults belong to the per-batch PerfSim underneath and are out of
     * scope here.
     */
    ServeReport run(FaultInjector *injector = nullptr) const;

    const ServeSpec &spec() const { return spec_; }

  private:
    ServeSpec spec_;
};

} // namespace prose

#endif // PROSE_SERVE_SERVE_SIM_HH
