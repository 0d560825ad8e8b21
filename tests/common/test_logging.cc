/** @file Tests for the logging helpers (non-fatal paths + death tests). */

#include <gtest/gtest.h>

#include <regex>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace prose {
namespace {

TEST(Logging, ConcatJoinsHeterogeneousArgs)
{
    EXPECT_EQ(detail::concat("x=", 3, " y=", 2.5), "x=3 y=2.5");
}

TEST(Logging, ConcatEmpty)
{
    EXPECT_EQ(detail::concat(), "");
}

TEST(Logging, ConcurrentWarnsDoNotInterleave)
{
    constexpr int kThreads = 8;
    constexpr int kLines = 50;
    testing::internal::CaptureStderr();
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([t] {
                for (int i = 0; i < kLines; ++i)
                    warn("msg-", t, "-", i);
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    const std::string err = testing::internal::GetCapturedStderr();

    // Every captured line must be exactly one whole message: a single
    // mutex-guarded write per line means no interleaved fragments.
    const std::regex whole_line("warn: msg-[0-7]-[0-9]+");
    std::size_t lines = 0, start = 0;
    while (start < err.size()) {
        std::size_t end = err.find('\n', start);
        if (end == std::string::npos)
            end = err.size();
        const std::string line = err.substr(start, end - start);
        EXPECT_TRUE(std::regex_match(line, whole_line))
            << "interleaved log line: '" << line << "'";
        ++lines;
        start = end + 1;
    }
    EXPECT_EQ(lines, static_cast<std::size_t>(kThreads * kLines));
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("boom"), "boom");
}

TEST(LoggingDeathTest, AssertMacroAborts)
{
    EXPECT_DEATH(PROSE_ASSERT(1 == 2, "math broke"), "math broke");
}

TEST(LoggingDeathTest, AssertMacroPassesThrough)
{
    PROSE_ASSERT(1 == 1, "never shown");
    SUCCEED();
}

TEST(LoggingDeathTest, FatalExitsWithStatusOne)
{
    EXPECT_EXIT(fatal("bad config"), testing::ExitedWithCode(1),
                "bad config");
}

TEST(ScopedFatalThrowTest, FatalThrowsQuietlyWhileGuardIsAlive)
{
    ScopedFatalThrow guard;
    EXPECT_THROW(fatal("rejected: ", 42), FatalError);
    try {
        fatal("rejected: ", 42);
    } catch (const FatalError &error) {
        EXPECT_STREQ(error.what(), "rejected: 42");
    }
}

TEST(ScopedFatalThrowTest, GuardsNestAndRestore)
{
    {
        ScopedFatalThrow outer;
        {
            ScopedFatalThrow inner;
            EXPECT_THROW(fatal("inner"), FatalError);
        }
        // Destroying the inner guard must not disarm the outer one.
        EXPECT_THROW(fatal("outer"), FatalError);
    }
}

TEST(ScopedFatalThrowTest, GuardIsThreadLocal)
{
    ScopedFatalThrow guard;
    bool other_thread_threw = false;
    std::thread probe([&] {
        // This thread has no guard: fatal() here would exit the whole
        // process, so only verify the flag via a nested guard.
        ScopedFatalThrow local;
        try {
            fatal("thread-local");
        } catch (const FatalError &) {
            other_thread_threw = true;
        }
    });
    probe.join();
    EXPECT_TRUE(other_thread_threw);
    EXPECT_THROW(fatal("still armed"), FatalError);
}

TEST(ScopedFatalThrowDeathTest, PanicStillAbortsUnderTheGuard)
{
    // The guard only demotes fatal() (user error); panic() is a
    // simulator bug and must stay un-catchable.
    ScopedFatalThrow guard;
    EXPECT_DEATH(panic("engine divergence"), "engine divergence");
}

} // namespace
} // namespace prose
