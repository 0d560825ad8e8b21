/**
 * @file
 * Status-message and error-handling helpers in the gem5 tradition.
 *
 * panic() is for internal invariant violations (simulator bugs); it aborts.
 * fatal() is for user errors (bad configuration, invalid arguments); it
 * exits with a non-zero status. warn() reports conditions that do not stop
 * the simulation.
 */

#ifndef PROSE_COMMON_LOGGING_HH
#define PROSE_COMMON_LOGGING_HH

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace prose {

/**
 * The exception fatal() raises while a ScopedFatalThrow is active.
 * Carries the formatted message; nothing is written to stderr in that
 * mode, so a fuzzer or replay driver probing millions of malformed
 * inputs stays quiet and alive.
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Severity of a log message. */
enum class LogLevel { Warn, Fatal, Panic };

namespace detail {

/** Stream a pack of arguments into a string. */
template <typename... Args>
std::string
concat([[maybe_unused]] Args &&...args)
{
    std::ostringstream os;
    if constexpr (sizeof...(Args) > 0)
        (os << ... << std::forward<Args>(args));
    return os.str();
}

/** Emit one formatted log line to stderr. */
void emitLog(LogLevel level, const std::string &msg);

/** Whether fatal() throws FatalError on this thread (see
 *  ScopedFatalThrow). */
bool &fatalThrowsFlag();

} // namespace detail

/** Report a suspicious-but-survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emitLog(LogLevel::Warn,
                    detail::concat(std::forward<Args>(args)...));
}

/**
 * Terminate because of a user-caused error (bad configuration or
 * arguments). Exits with status 1; never returns. While a
 * ScopedFatalThrow is active on this thread it throws FatalError
 * instead, so loaders can be probed with untrusted input (fuzzing,
 * error-path tests) without killing the process.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::string msg = detail::concat(std::forward<Args>(args)...);
    if (detail::fatalThrowsFlag())
        throw FatalError(msg);
    detail::emitLog(LogLevel::Fatal, msg);
    std::exit(1);
}

/**
 * RAII guard: while alive, fatal() on this thread throws FatalError
 * (quietly — no stderr line) instead of exiting. panic() is untouched:
 * an internal invariant violation must still abort, which is exactly
 * the crash/no-crash split the fuzz harnesses rely on. Nests safely.
 */
class ScopedFatalThrow
{
  public:
    ScopedFatalThrow()
        : prev_(detail::fatalThrowsFlag())
    {
        detail::fatalThrowsFlag() = true;
    }
    ~ScopedFatalThrow() { detail::fatalThrowsFlag() = prev_; }
    ScopedFatalThrow(const ScopedFatalThrow &) = delete;
    ScopedFatalThrow &operator=(const ScopedFatalThrow &) = delete;

  private:
    bool prev_;
};

/**
 * Terminate because of an internal invariant violation (a ProSE bug).
 * Aborts so a core dump / debugger can catch it; never returns.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emitLog(LogLevel::Panic,
                    detail::concat(std::forward<Args>(args)...));
    std::abort();
}

/** panic() unless the condition holds. */
#define PROSE_ASSERT(cond, ...)                                             \
    do {                                                                    \
        if (!(cond))                                                        \
            ::prose::panic("assertion failed: ", #cond, " ",                \
                           ::prose::detail::concat(__VA_ARGS__));           \
    } while (0)

} // namespace prose

#endif // PROSE_COMMON_LOGGING_HH
