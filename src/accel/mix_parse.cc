#include "mix_parse.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace prose {

namespace {

/** Parse a non-negative integer; fatal with context otherwise (a
 *  digit string too large for 32 bits is malformed input, not an
 *  exception escaping to std::terminate). */
std::uint32_t
parseCount(const std::string &text, const std::string &context)
{
    std::uint32_t value = 0;
    if (!parseU32(text, value))
        fatal("'", text, "' is not an in-range number in ", context);
    return value;
}

/**
 * An array dimension or group count beyond any plausible hardware is
 * malformed input: downstream consumers size dim^2 accumulator files
 * and per-instance vectors from these fields, so a fuzzer (or a typo)
 * writing "M999999999x1" must die here with a message, not inside an
 * allocator.
 */
constexpr std::uint32_t kMaxArrayDim = 4096;
constexpr std::uint32_t kMaxGroupCount = 65536;

} // namespace

ArrayPools
parseMixSpec(const std::string &spec)
{
    // A type the spec leaves out keeps an empty pool in its own slot.
    ArrayPools pools;
    for (std::size_t i = 0; i < pools.size(); ++i)
        pools[i].geometry = ArrayGeometry::ofType(kArrayTypes[i], 0);
    for (const std::string &raw : split(spec, ',')) {
        const std::string part = trim(raw);
        if (part.empty())
            fatal("empty group in mix spec '", spec, "'");
        const char type_char =
            static_cast<char>(std::toupper(part.front()));
        const auto x_pos = part.find_first_of("xX", 1);
        if (x_pos == std::string::npos)
            fatal("group '", part, "' must look like M64x2");
        const std::uint32_t dim =
            parseCount(part.substr(1, x_pos - 1), "mix group dim");
        const std::uint32_t count =
            parseCount(part.substr(x_pos + 1), "mix group count");
        if (dim == 0)
            fatal("group '", part, "' has a zero array dimension");
        if (count == 0)
            fatal("group '", part, "' has a zero count");
        if (dim > kMaxArrayDim)
            fatal("group '", part, "' array dimension ", dim,
                  " exceeds the ", kMaxArrayDim, " sanity bound");
        if (count > kMaxGroupCount)
            fatal("group '", part, "' count ", count, " exceeds the ",
                  kMaxGroupCount, " sanity bound");

        const auto type = std::find_if(
            kArrayTypes.begin(), kArrayTypes.end(),
            [&](ArrayType t) { return toString(t)[0] == type_char; });
        if (type == kArrayTypes.end())
            fatal("unknown array type '", type_char,
                  "' in mix group '", part, "' (use M, G, or E)");
        ArrayGroupSpec &pool = pools[typeIndex(*type)];
        if (pool.count > 0)
            fatal("type ", toString(*type), " appears twice in mix spec '",
                  spec, "'");
        pool = { ArrayGeometry::ofType(*type, dim), count };
    }
    return pools;
}

LanePartition
parseLaneSpec(const std::string &spec)
{
    const auto parts = split(spec, ',');
    if (parts.size() != 3)
        fatal("lane spec '", spec, "' must be three numbers M,G,E");
    LanePartition lanes;
    lanes.mLanes = parseCount(trim(parts[0]), "lane spec");
    lanes.gLanes = parseCount(trim(parts[1]), "lane spec");
    lanes.eLanes = parseCount(trim(parts[2]), "lane spec");
    if (lanes.mLanes == 0 || lanes.gLanes == 0 || lanes.eLanes == 0)
        fatal("every type needs at least one lane in '", spec, "'");
    return lanes;
}

ProseConfig
configFromSpec(const std::string &mix_spec, const std::string &lane_spec,
               const LinkSpec &link)
{
    ProseConfig config;
    config.name = mix_spec;
    config.groups = parseMixSpec(mix_spec);
    config.link = link;
    config.lanes = parseLaneSpec(lane_spec);
    // Semantic errors a user can spell in the two strings must be
    // user-error fatal()s with a parse-level message; validate()'s
    // PROSE_ASSERTs abort(), which is reserved for simulator bugs.
    if (std::any_of(config.groups.begin(), config.groups.end(),
                    [](const ArrayGroupSpec &pool) {
                        return pool.count == 0;
                    }))
        fatal("mix spec '", mix_spec, "' needs at least one array of "
              "each type M, G, and E");
    if (config.lanes.total() != link.lanes)
        fatal("lane spec '", lane_spec, "' partitions ",
              config.lanes.total(), " lanes but the ", link.name,
              " link has ", link.lanes);
    config.validate();
    return config;
}

} // namespace prose
