#include "logging.hh"

#include <mutex>
#include <sstream>

namespace prose {
namespace detail {

bool &
fatalThrowsFlag()
{
    // Thread-local: one thread probing a loader under ScopedFatalThrow
    // must not turn a concurrent thread's genuine fatal() into an
    // exception unwinding through unrelated stack frames.
    static thread_local bool throws = false;
    return throws;
}

void
emitLog(LogLevel level, const std::string &msg)
{
    const char *tag = "warn";
    switch (level) {
      case LogLevel::Warn:
        tag = "warn";
        break;
      case LogLevel::Fatal:
        tag = "fatal";
        break;
      case LogLevel::Panic:
        tag = "panic";
        break;
    }
    // Assemble the whole line first and emit it under a lock as one
    // write, so concurrent loggers (e.g. the threaded simulators) never
    // interleave fragments of their lines.
    std::ostringstream line;
    line << tag << ": " << msg << '\n';
    static std::mutex mutex;
    const std::lock_guard<std::mutex> guard(mutex);
    std::cerr << line.str() << std::flush;
}

} // namespace detail
} // namespace prose
