#include "prose_config.hh"

#include <sstream>

#include "common/logging.hh"

namespace prose {

namespace {

/** One pool's array size and count. */
struct PoolSize
{
    std::uint32_t dim;
    std::uint32_t count;
};

/** Build a config from the M, G and E pool sizes, in that order. */
ProseConfig
makeConfig(std::string name, const PoolSize (&mix)[kArrayTypes.size()],
           LanePartition lanes)
{
    ProseConfig config;
    config.name = std::move(name);
    config.lanes = lanes;
    for (std::size_t i = 0; i < kArrayTypes.size(); ++i)
        config.groups[i] = { ArrayGeometry::ofType(kArrayTypes[i],
                                                   mix[i].dim),
                             mix[i].count };
    config.validate();
    return config;
}

} // namespace

std::uint64_t
ProseConfig::totalPes() const
{
    std::uint64_t total = 0;
    for (const auto &group : groups)
        total += group.count * group.geometry.peCount();
    return total;
}

void
ProseConfig::validate() const
{
    for (std::size_t i = 0; i < groups.size(); ++i) {
        PROSE_ASSERT(groups[i].geometry.type == kArrayTypes[i],
                     "pool ", toString(kArrayTypes[i]), " holds a ",
                     toString(groups[i].geometry.type), "-type array (",
                     name, ")");
        PROSE_ASSERT(groups[i].count > 0,
                     "every array type is needed for functionality (",
                     name, ")");
    }
    PROSE_ASSERT(lanes.total() == link.lanes,
                 "lane partition does not cover the link in ", name);
    link.validate();
    streaming.validate();
    PROSE_ASSERT(threads > 0, "need at least one software thread");
}

std::string
ProseConfig::describe() const
{
    std::ostringstream os;
    os << name << " [";
    for (std::size_t i = 0; i < groups.size(); ++i) {
        if (i)
            os << ", ";
        os << groups[i].count << "x " << groups[i].geometry.describe();
    }
    os << "] " << totalPes() << " PEs, " << link.name << " ("
       << lanes.describe() << ", " << streaming.describe() << "), "
       << threads << " threads"
       << (partialInputBuffer ? ", +InBuf" : "");
    return os.str();
}

ProseConfig
ProseConfig::bestPerf()
{
    return makeConfig("BestPerf", { { 64, 2 }, { 16, 10 }, { 16, 22 } },
                      LanePartition{ 3, 1, 2 });
}

ProseConfig
ProseConfig::mostEfficient()
{
    return makeConfig("MostEfficient", { { 64, 2 }, { 32, 3 }, { 16, 20 } },
                      LanePartition{ 3, 1, 2 });
}

ProseConfig
ProseConfig::homogeneous()
{
    return makeConfig("Homogeneous", { { 64, 2 }, { 64, 1 }, { 64, 1 } },
                      LanePartition{ 3, 1, 2 });
}

ProseConfig
ProseConfig::bestPerfPlus()
{
    return makeConfig("BestPerf+", { { 64, 2 }, { 32, 5 }, { 32, 7 } },
                      LanePartition{ 3, 1, 2 });
}

ProseConfig
ProseConfig::mostEfficientPlus()
{
    ProseConfig config = bestPerfPlus();
    config.name = "MostEfficient+";
    return config;
}

ProseConfig
ProseConfig::homogeneousPlus()
{
    return makeConfig("Homogeneous+", { { 64, 2 }, { 64, 1 }, { 64, 2 } },
                      LanePartition{ 3, 1, 2 });
}

ProseConfig
ProseConfig::fourBy64Homogeneous()
{
    return makeConfig("4x64x64-Homogeneous",
                      { { 64, 2 }, { 64, 1 }, { 64, 1 } },
                      LanePartition{ 2, 2, 2 });
}

} // namespace prose
