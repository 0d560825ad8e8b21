#include "thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <exception>

#include "logging.hh"

namespace prose {

namespace {

/** Depth of parallelFor bodies running on this thread. */
thread_local int tlParallelDepth = 0;

/** Active SerialGuard count on this thread. */
thread_local int tlSerialDepth = 0;

std::atomic<ThreadPool *> globalOverride{ nullptr };

/** parallelFor calls that actually fanned out (see dispatchCount()). */
std::atomic<std::uint64_t> pooledDispatches{ 0 };

} // namespace

/** One in-flight parallelFor, owned by the submitting stack frame. */
struct ThreadPool::Job
{
    const RangeFn *body = nullptr;
    std::size_t n = 0;
    std::size_t chunks = 0;
    std::atomic<std::size_t> next{ 0 };    ///< next unclaimed chunk
    std::atomic<std::size_t> pending{ 0 }; ///< chunks not yet finished
    std::atomic<unsigned> active{ 0 };     ///< workers touching this job
    std::exception_ptr error;
    std::mutex errorMutex;
};

ThreadPool::ThreadPool(unsigned parallelism)
{
    const unsigned workers = parallelism > 1 ? parallelism - 1 : 0;
    workers_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

ThreadPool &
ThreadPool::global()
{
    if (ThreadPool *override = globalOverride.load(std::memory_order_acquire))
        return *override;
    static ThreadPool pool(configuredParallelism());
    return pool;
}

void
ThreadPool::setGlobalOverride(ThreadPool *pool)
{
    globalOverride.store(pool, std::memory_order_release);
}

unsigned
ThreadPool::configuredParallelism()
{
    return parseThreadsSpec(std::getenv("PROSE_THREADS"),
                            std::thread::hardware_concurrency());
}

unsigned
ThreadPool::parseThreadsSpec(const char *spec, unsigned fallback)
{
    if (fallback < 1)
        fallback = 1;
    if (!spec || !*spec)
        return fallback;
    char *end = nullptr;
    const long value = std::strtol(spec, &end, 10);
    if (end == spec || *end != '\0' || value < 1 || value > 4096) {
        warn("ignoring invalid PROSE_THREADS=\"", spec, "\"; using ",
             fallback, " thread(s)");
        return fallback;
    }
    return static_cast<unsigned>(value);
}

bool
ThreadPool::inParallelRegion()
{
    return tlParallelDepth > 0 || tlSerialDepth > 0;
}

std::uint64_t
ThreadPool::dispatchCount()
{
    return pooledDispatches.load(std::memory_order_relaxed);
}

ThreadPool::SerialGuard::SerialGuard()
{
    ++tlSerialDepth;
}

ThreadPool::SerialGuard::~SerialGuard()
{
    --tlSerialDepth;
}

void
ThreadPool::parallelFor(std::size_t n, const RangeFn &body)
{
    if (n == 0)
        return;
    // Over-decompose ~4x for load balance; chunk claim order is
    // irrelevant to results because indices partition exactly.
    const std::size_t chunks =
        std::min(n, static_cast<std::size_t>(parallelism()) * 4);
    if (chunks <= 1 || workers_.empty() || inParallelRegion()) {
        ++tlParallelDepth;
        try {
            body(0, n);
        } catch (...) {
            --tlParallelDepth;
            throw;
        }
        --tlParallelDepth;
        return;
    }

    pooledDispatches.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> submit(submitMutex_);
    Job job;
    job.body = &body;
    job.n = n;
    job.chunks = chunks;
    job.pending.store(chunks, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &job;
        ++epoch_;
    }
    wake_.notify_all();
    runChunks(job); // the submitting thread is a lane too
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] {
            return job.pending.load(std::memory_order_acquire) == 0 &&
                   job.active.load(std::memory_order_acquire) == 0;
        });
        job_ = nullptr;
    }
    if (job.error)
        std::rethrow_exception(job.error);
}

void
ThreadPool::runChunks(Job &job)
{
    ++tlParallelDepth;
    for (std::size_t chunk = job.next.fetch_add(1); chunk < job.chunks;
         chunk = job.next.fetch_add(1)) {
        const std::size_t begin = job.n * chunk / job.chunks;
        const std::size_t end = job.n * (chunk + 1) / job.chunks;
        try {
            if (begin < end)
                (*job.body)(begin, end);
        } catch (...) {
            std::lock_guard<std::mutex> lock(job.errorMutex);
            if (!job.error)
                job.error = std::current_exception();
        }
        job.pending.fetch_sub(1, std::memory_order_release);
    }
    --tlParallelDepth;
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [&] {
            return stop_ || (job_ != nullptr && epoch_ != seen);
        });
        if (stop_)
            return;
        seen = epoch_;
        Job *job = job_;
        job->active.fetch_add(1, std::memory_order_acq_rel);
        lock.unlock();
        runChunks(*job);
        lock.lock();
        if (job->active.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            job->pending.load(std::memory_order_acquire) == 0) {
            done_.notify_all();
        }
    }
}

} // namespace prose
