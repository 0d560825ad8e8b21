/**
 * @file
 * The ProSE cycle-accurate performance simulator (Figure 15, right):
 * a discrete-event model comprising
 *
 *  - a thread-launch model: the batch is sliced across N software
 *    threads, each of which walks the model's dataflow chain
 *    (1 -> 3 -> 1 -> 2 -> 1 per layer, Figure 8) in order;
 *  - an orchestration/scheduling model: each dataflow task waits for
 *    the systolic-array pool of its type (DF1 -> M, DF2 -> G,
 *    DF3 -> E) and for that type's I/O buffer mutex (thread
 *    contention). A dataflow's output tiles are mutually independent,
 *    so the orchestrator spreads them data-parallel across every array
 *    of the type — the pool executes one task at a time at the
 *    aggregate rate of its arrays (this is what makes many small
 *    arrays deliver their aggregate SIMD-ALU advantage);
 *  - a host-accelerator communication model: a task streams over its
 *    type's statically-partitioned lane share through the configured
 *    StreamSpec (serialized, double-buffered DMA with tile-granular
 *    fill/drain ramps, or the ideal-overlap reference) with optional
 *    on-link compression, and — under runShared() — arbitrates with
 *    other tenants for the shared per-type channels
 *    (docs/LINK_MODEL.md; the Dataflow 3 host-softmax trip blocks
 *    only the issuing thread);
 *  - a host-compute model for softmax sum/divide and Other-class ops.
 *
 * Per-task cycle counts come from the closed-form TimingModel, which is
 * validated against the register-accurate SystolicArray.
 */

#ifndef PROSE_ACCEL_PERF_SIM_HH
#define PROSE_ACCEL_PERF_SIM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "fault/fault_injector.hh"
#include "host_model.hh"
#include "prose_config.hh"
#include "systolic/timing_model.hh"
#include "trace/dataflow.hh"

namespace prose {

/** One scheduled task occurrence (for Gantt-style reporting). */
struct ScheduledItem
{
    std::uint32_t tenant = 0; ///< runShared tenant index (0 otherwise)
    std::uint32_t thread = 0;
    DataflowKind kind = DataflowKind::Host;
    Sublayer sublayer = Sublayer::Embedding;
    int layer = -1;
    int arrayIndex = -1; ///< array-type pool index (0=M,1=G,2=E); -1 host
    double start = 0.0;
    /** When the issuing thread becomes ready (includes any Dataflow 3
     *  host-softmax tail). */
    double end = 0.0;
    /** When the pool itself frees (end minus the host-softmax tail). */
    double poolEnd = 0.0;
};

/** Result of one simulation. */
struct SimReport
{
    double makespan = 0.0;          ///< wall-clock seconds end-to-end
    std::uint64_t bytesIn = 0;      ///< host->accelerator traffic
    std::uint64_t bytesOut = 0;     ///< accelerator->host traffic
    double hostBusySeconds = 0.0;   ///< summed host-side work
    double cpuDuty = 0.0;           ///< host capacity fraction used
    double totalFlops = 0.0;        ///< useful arithmetic simulated
    std::uint64_t taskCount = 0;    ///< dataflow + host tasks executed
    std::uint64_t inferences = 0;   ///< sequences pushed through

    /** Busy seconds per array type (M, G, E). */
    std::array<double, 3> typeBusySeconds{ { 0.0, 0.0, 0.0 } };
    /** Instance count per array type. */
    std::array<std::uint32_t, 3> typeCounts{ { 0, 0, 0 } };

    /** @name Link streaming accounting (docs/LINK_MODEL.md) @{ */
    /** Post-compression traffic actually on the wire. Equals
     *  bytesIn/bytesOut when the link compresses nothing. */
    std::uint64_t wireBytesIn = 0;
    std::uint64_t wireBytesOut = 0;
    /** Summed pipeline-fill ramps (first chunk's stream-in before the
     *  array can start) under double buffering. */
    double fillSeconds = 0.0;
    /** Summed drain ramps (last chunk's stream-out after compute). */
    double drainSeconds = 0.0;
    /** Shared-link arbitration delay across all tasks: time transfers
     *  waited for another tenant's stream on the same type lanes.
     *  Exactly zero for single-tenant runs. */
    double linkWaitSeconds = 0.0;
    /** The part of linkWaitSeconds the prefetch queue could not hide:
     *  arrays actually stalled this long waiting for operands. */
    double prefetchStallSeconds = 0.0;
    /** Tenants that shared the link in this run (1 for run()). */
    std::uint32_t tenantCount = 1;
    /** @} */

    /** Optional Gantt records (enabled via SimOptions). */
    std::vector<ScheduledItem> schedule;

    /** When each software thread drained its task chain (thread order;
     *  the makespan is the maximum entry). */
    std::vector<double> threadFinishSeconds;

    /**
     * Per-inference completion times (size == inferences). A thread's
     * sequences all finish when the thread drains, so entries are the
     * thread finish times expanded by each thread's batch share. Only
     * run()/runDecoder() fill this; a bare runTasks() has no notion of
     * inferences.
     */
    std::vector<double> inferenceEndSeconds;

    /** @name Fault/recovery accounting (all zero without an injector) @{ */
    std::uint64_t linkTransferErrors = 0; ///< corrupted transfers seen
    std::uint64_t linkTimeouts = 0;       ///< hung transfers seen
    std::uint64_t taskRetries = 0;        ///< re-streamed task attempts
    std::uint64_t abandonedTransfers = 0; ///< retry budget exhausted
    double retrySeconds = 0.0;            ///< latency charged to faults
    /** Arrays per type dead by the end of the run (failover losses). */
    std::array<std::uint32_t, 3> deadArrays{ { 0, 0, 0 } };
    /** @} */

    /** Sequences per second. */
    double inferencesPerSecond() const;

    /** Busy fraction of one array type over the makespan. */
    double utilization(ArrayType type) const;
};

/**
 * Exponential backoff with a bounded attempt budget, for both fault
 * layers. PerfSim retries faulted link transfers under the defaults
 * below; after maxAttempts a transfer is forced through a degraded path
 * and counted as abandoned (the run completes; the counter is the
 * alarm). ServeSim retries the requests a dying instance drops under
 * its own defaults (ServeSpec::retry).
 */
struct RetryPolicy
{
    std::uint32_t maxAttempts = 4; ///< first try + up to 3 retries
    double backoffSeconds = 10e-6; ///< delay before the first retry
    double backoffFactor = 2.0;    ///< growth per subsequent retry
    /** Deterministic jitter: uniform in [0, fraction] of the delay,
     *  keyed on (seed, id, retry) — independent of event order, so
     *  replays stay bit-identical. */
    double jitterFraction = 0.0;

    void validate() const;

    /** Backoff + jitter before retry number `retry` (0-based) of work
     *  item `id` under stream seed `seed`. */
    double delayFor(std::uint32_t retry, std::uint64_t seed = 0,
                    std::uint64_t id = 0) const;
};

/** Simulator knobs. */
struct SimOptions
{
    /** Host CPU that runs softmax sum/divide and the Other-class ops
     *  (ProseSystem hands each instance its share of one host). */
    HostModel host = HostModel{};

    /** Record per-task schedule items (costs memory on big runs). */
    bool recordSchedule = false;

    /**
     * Pick each dispatch with the O(threads) linear scan over every
     * thread's earliest start instead of the per-resource wait queues.
     * Both schedulers produce identical schedules (asserted by the
     * differential tests); the scan is kept as the reference.
     */
    bool referenceScheduler = false;

    /**
     * Optional fault injector (not owned). When set, every accelerator
     * task samples the campaign's link faults, charges retry latency
     * per the policy below, and the scheduler fails over around killed
     * arrays. nullptr reproduces fault-free behavior exactly.
     */
    FaultInjector *injector = nullptr;

    /** Recovery policy applied when the injector faults a transfer. */
    RetryPolicy retry;
};

/** The discrete-event performance simulator. */
class PerfSim
{
  public:
    /** The timing/traffic model follows the configuration (notably its
     *  partial-input-buffer setting); the host comes from `options`. */
    explicit PerfSim(ProseConfig config, SimOptions options = {});

    /**
     * Simulate one full Protein BERT inference batch: slice the batch
     * across the configured threads, synthesize each thread's trace,
     * build dataflows, and schedule them.
     */
    SimReport run(const BertShape &shape) const;

    /**
     * Simulate an encoder-decoder translation workload (the paper's
     * conclusion: ProSE generalizes by "adding decoder layers"): the
     * batch is sliced across threads like run().
     */
    SimReport runDecoder(const DecoderShape &shape) const;

    /** Schedule an explicit per-thread task list (tests / custom loads). */
    SimReport runTasks(
        const std::vector<std::vector<DataflowTask>> &thread_tasks) const;

    /**
     * Simulate several tenants — independent ProSE instances each
     * running its own batch — whose transfers arbitrate for one shared
     * physical link (per-type lane groups are full-duplex shared
     * channels; docs/LINK_MODEL.md). Compute resources are private per
     * tenant; only link occupancy couples them. A single-tenant call
     * is bit-identical to run(). The combined report aggregates all
     * tenants (makespan = slowest tenant); per-tenant reports land in
     * `per_tenant` when non-null.
     */
    SimReport runShared(const std::vector<BertShape> &tenant_shapes,
                        std::vector<SimReport> *per_tenant = nullptr) const;

    const ProseConfig &config() const { return config_; }

  private:
    /** Durations of one accelerator task on a given geometry. */
    struct TaskSeconds
    {
        /** Time the systolic array is occupied (compute vs stream). */
        double arraySeconds = 0.0;
        /**
         * Extra serial time the issuing thread waits beyond the array
         * occupancy — the Dataflow 3 host softmax trip, during which
         * the array is free to serve other threads.
         */
        double threadExtraSeconds = 0.0;

        /** Pooled compute time (streaming-model stage). */
        double computeSeconds = 0.0;
        /** Wire stream-in/-out times (shared-channel hold times). */
        double streamInSeconds = 0.0;
        double streamOutSeconds = 0.0;
        /** Fill/drain ramps under double buffering (0 otherwise). */
        double fillSeconds = 0.0;
        double drainSeconds = 0.0;
        /** Arbitration jitter the prefetch queue can hide before the
         *  array stalls: (depth - 1) chunk-compute times. */
        double prefetchSlackSeconds = 0.0;
        /** Post-compression wire traffic. */
        std::uint64_t wireBytesIn = 0;
        std::uint64_t wireBytesOut = 0;
    };

    /**
     * One tenant's sliced workload inside runTasksShared. Threads whose
     * slices are identical share one chain: a batch sliced over the
     * threads has at most two distinct slice sizes, so it is traced
     * and costed at most twice however many threads run it.
     */
    struct TenantLoad
    {
        std::vector<std::vector<DataflowTask>> chains;
        std::vector<std::uint32_t> threadChain; ///< chain per thread
        std::vector<std::uint64_t> shares; ///< batch slice per thread
        std::uint64_t inferences = 0;
    };

    /** The joint scheduler behind every run*() entry point. */
    SimReport runTasksShared(const std::vector<TenantLoad> &tenants,
                             std::vector<SimReport> *per_tenant) const;

    /**
     * Slice a batch across the configured threads as evenly as
     * possible, building one chain per distinct slice size from
     * `synthesize(slice)`.
     */
    template <typename Shape>
    TenantLoad sliceBatch(const Shape &shape,
                          OpTrace (*synthesize)(const Shape &)) const;

    /** Schedule one sliced batch and expand its inference end times. */
    SimReport runSliced(TenantLoad load) const;

    /**
     * Turn a task's cost into durations on its pool. Called once per
     * distinct task before scheduling, with every array of the pool
     * alive; a dispatch calls it again, with the live count, only
     * while the fault campaign has killed arrays of that pool.
     *
     * @param geometry one array of the executing pool
     * @param pool_count live arrays in the pool (tiles split evenly)
     * @param bandwidth the pool's aggregate link share
     */
    TaskSeconds accelTaskSeconds(const TaskCost &cost,
                                 const ArrayGeometry &geometry,
                                 std::uint32_t pool_count,
                                 double bandwidth) const;

    ProseConfig config_;
    TimingModel timing_;
    SimOptions options_;
};

/** Map a dataflow kind to the array type that executes it. */
ArrayType arrayTypeFor(DataflowKind kind);

} // namespace prose

#endif // PROSE_ACCEL_PERF_SIM_HH
