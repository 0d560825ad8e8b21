/**
 * @file
 * Stress tests for the thread pool, written for the TSan build: they
 * hammer the interleavings the race detector needs to see — pool
 * teardown racing worker wakeup, reentrant submission, exception
 * unwind with SerialGuards on the stack, and stats merging under
 * contention. Each scenario is also a functional regression test in
 * uninstrumented builds, so they run in tier-1 everywhere.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "numerics/float_bits.hh"
#include "numerics/matrix.hh"

namespace prose {
namespace {

// Construct, immediately use, and destroy pools in a tight loop: the
// destructor's stop_ handshake must not race the workers' first (or
// last) pass through the wake_ predicate.
TEST(ThreadPoolStress, RapidCreateUseDestroy)
{
    for (int iter = 0; iter < 50; ++iter) {
        ThreadPool pool(4);
        std::atomic<int> sum{ 0 };
        pool.parallelFor(64, [&](std::size_t lo, std::size_t hi) {
            sum.fetch_add(static_cast<int>(hi - lo));
        });
        ASSERT_EQ(sum.load(), 64);
        // Destructor runs with workers possibly still inside their
        // post-job bookkeeping.
    }
}

// Destruction with work still queued behind the submit mutex: several
// submitter threads compete for the pool, then the pool dies right
// after the last submitter finishes. The destructor must drain
// cleanly even though workers were woken moments earlier.
TEST(ThreadPoolStress, DestructionRightAfterContendedSubmits)
{
    for (int iter = 0; iter < 10; ++iter) {
        std::atomic<int> total{ 0 };
        {
            ThreadPool pool(4);
            std::vector<std::thread> submitters;
            for (int t = 0; t < 3; ++t) {
                submitters.emplace_back([&] {
                    for (int rep = 0; rep < 5; ++rep) {
                        pool.parallelFor(
                            100, [&](std::size_t lo, std::size_t hi) {
                                total.fetch_add(
                                    static_cast<int>(hi - lo));
                            });
                    }
                });
            }
            for (auto &t : submitters)
                t.join();
        }
        ASSERT_EQ(total.load(), 3 * 5 * 100);
    }
}

// Reentrancy hammer: every chunk of the outer loop issues nested
// parallelFors (which must inline) while other threads submit their
// own outer loops through the same pool.
TEST(ThreadPoolStress, ReentrantSubmissionFromManyThreads)
{
    ThreadPool pool(4);
    std::atomic<std::int64_t> total{ 0 };
    std::vector<std::thread> drivers;
    for (int t = 0; t < 4; ++t) {
        drivers.emplace_back([&] {
            for (int rep = 0; rep < 20; ++rep) {
                pool.parallelFor(16, [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) {
                        pool.parallelFor(
                            8, [&](std::size_t ilo, std::size_t ihi) {
                                total.fetch_add(
                                    static_cast<std::int64_t>(ihi - ilo));
                            });
                    }
                });
            }
        });
    }
    for (auto &t : drivers)
        t.join();
    EXPECT_EQ(total.load(), 4 * 20 * 16 * 8);
}

// Exceptions racing from several chunks at once: exactly one must win
// the rethrow, the rest are swallowed, and the pool must stay usable.
TEST(ThreadPoolStress, ConcurrentThrowsFirstOneWins)
{
    ThreadPool pool(4);
    for (int iter = 0; iter < 25; ++iter) {
        try {
            pool.parallelFor(64, [&](std::size_t, std::size_t) {
                throw std::runtime_error("chunk bomb");
            });
            FAIL() << "parallelFor swallowed every exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "chunk bomb");
        }
    }
    std::atomic<int> ok{ 0 };
    pool.parallelFor(32, [&](std::size_t lo, std::size_t hi) {
        ok.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(ok.load(), 32);
}

// A SerialGuard living inside a chunk body when an exception unwinds
// through it must restore the thread's region state: afterwards the
// same thread can run parallel work again (not forced inline).
TEST(ThreadPoolStress, SerialGuardUnwindsCleanlyThroughExceptions)
{
    ThreadPool pool(4);
    for (int iter = 0; iter < 25; ++iter) {
        EXPECT_FALSE(ThreadPool::inParallelRegion());
        try {
            ThreadPool::SerialGuard outer;
            pool.parallelFor(8, [&](std::size_t lo, std::size_t) {
                ThreadPool::SerialGuard inner;
                if (lo == 0)
                    throw std::logic_error("unwind through guards");
            });
        } catch (const std::logic_error &) {
        }
        EXPECT_FALSE(ThreadPool::inParallelRegion());
    }
    // The pool still fans out (chunk-count probe): with the guards
    // gone, a large loop is split into more than one chunk.
    std::mutex m;
    int calls = 0;
    pool.parallelFor(1000, [&](std::size_t, std::size_t) {
        const std::lock_guard<std::mutex> lock(m);
        ++calls;
    });
    EXPECT_GT(calls, 1);
}

// Stats-merge pattern under contention, as the systolic clone fan-out
// uses it: chunk-local accumulators folded under a mutex must lose
// nothing, regardless of interleaving.
TEST(ThreadPoolStress, ChunkLocalMergeLosesNothing)
{
    ThreadPool pool(4);
    for (int iter = 0; iter < 20; ++iter) {
        std::mutex m;
        std::uint64_t macs = 0, cycles = 0;
        pool.parallelFor(500, [&](std::size_t lo, std::size_t hi) {
            std::uint64_t local_macs = 0, local_cycles = 0;
            for (std::size_t i = lo; i < hi; ++i) {
                local_macs += i;
                local_cycles += 2 * i + 1;
            }
            const std::lock_guard<std::mutex> lock(m);
            macs += local_macs;
            cycles += local_cycles;
        });
        EXPECT_EQ(macs, 500ull * 499 / 2);
        EXPECT_EQ(cycles, 500ull * 500);
    }
}

// The bit-identical contract, end to end through a real kernel: the
// pooled tiled matmul must produce byte-identical output for 1 lane
// (SerialGuard) and N lanes, on the same pool, repeatedly.
TEST(ThreadPoolStress, MatmulBitIdenticalSerialVsParallel)
{
    ThreadPool pool(4);
    ThreadPool::setGlobalOverride(&pool);
    Matrix a(37, 53), b(53, 29);
    std::uint32_t state = 0x9e3779b9u;
    auto next = [&state] {
        state = state * 1664525u + 1013904223u;
        return static_cast<float>(static_cast<int>(state >> 16) - 32768) /
               4096.0f;
    };
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            a(i, j) = next();
    for (std::size_t i = 0; i < b.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j)
            b(i, j) = next();

    Matrix serial(1, 1);
    {
        ThreadPool::SerialGuard guard;
        serial = matmul(a, b);
    }
    for (int rep = 0; rep < 8; ++rep) {
        const Matrix parallel = matmul(a, b);
        ASSERT_EQ(parallel.rows(), serial.rows());
        ASSERT_EQ(parallel.cols(), serial.cols());
        for (std::size_t i = 0; i < serial.rows(); ++i)
            for (std::size_t j = 0; j < serial.cols(); ++j)
                ASSERT_TRUE(bitsEqual(parallel(i, j), serial(i, j)))
                    << "rep " << rep << " at (" << i << "," << j << ")";
    }
    ThreadPool::setGlobalOverride(nullptr);
}

// PROSE_THREADS=1 must yield a pool whose results match any larger
// pool bit for bit — the env-var path goes through the same
// parseThreadsSpec shim the global pool uses.
TEST(ThreadPoolStress, ProseThreadsOneMatchesLargerPools)
{
    ASSERT_EQ(setenv("PROSE_THREADS", "1", 1), 0);
    EXPECT_EQ(ThreadPool::configuredParallelism(), 1u);
    ASSERT_EQ(setenv("PROSE_THREADS", "5", 1), 0);
    EXPECT_EQ(ThreadPool::configuredParallelism(), 5u);
    ASSERT_EQ(unsetenv("PROSE_THREADS"), 0);

    // A 1-lane pool runs everything inline; results must match an
    // 8-lane pool bitwise through the pooled matmul path.
    Matrix a(23, 31), b(31, 17);
    std::uint32_t state = 0x51eddeadu;
    auto next = [&state] {
        state = state * 1664525u + 1013904223u;
        return static_cast<float>(static_cast<int>(state >> 16) - 32768) /
               2048.0f;
    };
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            a(i, j) = next();
    for (std::size_t i = 0; i < b.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j)
            b(i, j) = next();

    ThreadPool one(1), eight(8);
    ThreadPool::setGlobalOverride(&one);
    const Matrix from_one = matmul(a, b);
    ThreadPool::setGlobalOverride(&eight);
    const Matrix from_eight = matmul(a, b);
    ThreadPool::setGlobalOverride(nullptr);
    for (std::size_t i = 0; i < from_one.rows(); ++i)
        for (std::size_t j = 0; j < from_one.cols(); ++j)
            ASSERT_TRUE(bitsEqual(from_one(i, j), from_eight(i, j)))
                << "(" << i << "," << j << ")";
}

} // namespace
} // namespace prose
