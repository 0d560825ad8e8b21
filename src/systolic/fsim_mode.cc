#include "fsim_mode.hh"

#include <cstdlib>
#include <optional>
#include <string>

#include "common/logging.hh"

namespace prose {

const char *
toString(FsimMode mode)
{
    switch (mode) {
      case FsimMode::Fast:
        return "fast";
      case FsimMode::Stepped:
        return "stepped";
      case FsimMode::Validate:
        return "validate";
    }
    return "?";
}

namespace {

/** The mode toString() spells `name`: its switch is the one name list. */
std::optional<FsimMode>
lookupFsimMode(const std::string &name)
{
    for (const FsimMode mode :
         { FsimMode::Fast, FsimMode::Stepped, FsimMode::Validate }) {
        if (name == toString(mode))
            return mode;
    }
    return std::nullopt;
}

} // namespace

FsimMode
defaultFsimMode()
{
    static const FsimMode mode = [] {
        const char *spec = std::getenv("PROSE_FSIM_MODE");
        if (!spec || !*spec)
            return FsimMode::Fast;
        if (const std::optional<FsimMode> parsed = lookupFsimMode(spec))
            return *parsed;
        warn("ignoring invalid PROSE_FSIM_MODE=\"", spec,
             "\"; using fast (expected fast, stepped, or validate)");
        return FsimMode::Fast;
    }();
    return mode;
}

} // namespace prose
