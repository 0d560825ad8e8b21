/**
 * @file
 * prose::compute — the shared host-side compute backend.
 *
 * A persistent, lazily-initialized pool of worker threads that every
 * parallel consumer in the repo (tiled matmul kernels, the model's
 * attention fan-out, the DSE sweep, the functional simulator's batch
 * fan-out) submits to, instead of spawning ad-hoc std::thread vectors
 * per call.
 *
 * Scheduling is chunked self-scheduling: a parallelFor splits [0, n)
 * into contiguous index ranges and workers (plus the calling thread,
 * which always participates) claim chunks through an atomic counter.
 * Which thread runs which chunk never affects results — every index is
 * processed exactly once, and the kernels built on top preserve their
 * serial per-element arithmetic order — so output is bit-identical for
 * any pool size, matching docs/FAULT_MODEL.md's determinism contract.
 *
 * Sizing: the global pool holds hardware_concurrency() - 1 workers
 * (the submitting thread is the final lane), overridable with the
 * PROSE_THREADS environment variable (PROSE_THREADS=1 forces fully
 * serial execution). Nested parallelFor calls — e.g. a pooled matmul
 * issued from inside a DSE evaluation chunk — run inline on the calling
 * thread, so the pool never deadlocks on reentrancy.
 */

#ifndef PROSE_COMMON_THREAD_POOL_HH
#define PROSE_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prose {

/** Persistent chunk-scheduling worker pool (see file comment). */
class ThreadPool
{
  public:
    /** Body of a parallel loop: processes indices [begin, end). */
    using RangeFn = std::function<void(std::size_t, std::size_t)>;

    /**
     * @param parallelism total lanes including the submitting thread;
     *        parallelism - 1 worker threads are started immediately and
     *        live until destruction.
     */
    explicit ThreadPool(unsigned parallelism);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * The process-wide pool, created on first use with
     * configuredParallelism() lanes. Tests may swap it out with
     * setGlobalOverride().
     */
    static ThreadPool &global();

    /**
     * Point global() at `pool` (tests only — lets a 1-core CI host run
     * the kernels through a genuinely multi-threaded pool). Pass
     * nullptr to restore the real global pool.
     */
    static void setGlobalOverride(ThreadPool *pool);

    /** Lanes configured from PROSE_THREADS / hardware_concurrency. */
    static unsigned configuredParallelism();

    /**
     * Parse a PROSE_THREADS-style value: a positive decimal lane count.
     * Returns `fallback` (clamped to >= 1) for null/empty/invalid
     * specs, warning on the invalid ones. Exposed for tests.
     */
    static unsigned parseThreadsSpec(const char *spec, unsigned fallback);

    /** True while the calling thread is inside a parallelFor body (or a
     *  SerialGuard), i.e. further parallelFor calls would run inline. */
    static bool inParallelRegion();

    /**
     * Process-wide count of parallelFor calls that actually woke the
     * workers (inline/nested/serial runs don't count). Observability
     * hook for the matmul pool-threshold tests: they assert whether a
     * given shape dispatched by diffing this counter around the call.
     */
    static std::uint64_t dispatchCount();

    /** Total lanes: worker threads + the submitting thread. */
    unsigned parallelism() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Run body over disjoint chunks covering [0, n) and return when all
     * of it is done. The caller participates; exceptions thrown by the
     * body are rethrown here (first one wins). Runs inline when the
     * pool is serial, n is tiny, the call is nested, or a SerialGuard
     * is active.
     */
    void parallelFor(std::size_t n, const RangeFn &body);

    /**
     * RAII switch forcing every parallelFor on this thread to run
     * inline while alive — the serial reference mode the bit-exactness
     * tests and the perf-regression baseline measurements use.
     */
    class SerialGuard
    {
      public:
        SerialGuard();
        ~SerialGuard();
        SerialGuard(const SerialGuard &) = delete;
        SerialGuard &operator=(const SerialGuard &) = delete;
    };

  private:
    struct Job;

    void workerLoop();
    static void runChunks(Job &job);

    std::vector<std::thread> workers_;
    std::mutex submitMutex_; ///< serializes concurrent submitters
    std::mutex mutex_;       ///< guards job_/epoch_/stop_
    std::condition_variable wake_;
    std::condition_variable done_;
    Job *job_ = nullptr;
    std::uint64_t epoch_ = 0;
    bool stop_ = false;
};

} // namespace prose

#endif // PROSE_COMMON_THREAD_POOL_HH
