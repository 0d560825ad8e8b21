#include "config_space.hh"

#include <sstream>

#include "common/logging.hh"

namespace prose {

std::vector<ProseConfig>
enumerateMixes(const ConfigSpaceSpec &spec)
{
    std::vector<ProseConfig> mixes;
    const std::uint64_t pe64 = 64ull * 64ull;

    auto count_bound = [&](std::uint32_t dim) {
        return dim == 32 ? spec.maxCount32 : spec.maxCount16;
    };
    auto pes_of = [](std::uint32_t dim) {
        return static_cast<std::uint64_t>(dim) * dim;
    };

    for (std::uint32_t m = 1; m <= spec.maxMCount; ++m) {
        if (m * pe64 >= spec.peBudget)
            continue;
        const std::uint64_t after_m = spec.peBudget - m * pe64;
        for (std::uint32_t g_dim : { 16u, 32u }) {
            for (std::uint32_t e_dim : { 16u, 32u }) {
                const std::uint64_t g_pe = pes_of(g_dim);
                const std::uint64_t e_pe = pes_of(e_dim);
                for (std::uint32_t g = 1; g <= count_bound(g_dim); ++g) {
                    if (g * g_pe >= after_m)
                        break;
                    const std::uint64_t rest = after_m - g * g_pe;
                    if (rest % e_pe != 0)
                        continue;
                    const std::uint64_t e = rest / e_pe;
                    if (e < 1 || e > count_bound(e_dim))
                        continue;

                    ProseConfig config;
                    std::ostringstream name;
                    name << "M64x" << m << "-G" << g_dim << "x" << g
                         << "-E" << e_dim << "x" << e;
                    config.name = name.str();
                    config.groups = { {
                        { ArrayGeometry::mType(64), m },
                        { ArrayGeometry::gType(g_dim), g },
                        { ArrayGeometry::eType(e_dim),
                          static_cast<std::uint32_t>(e) },
                    } };
                    config.link = spec.link;
                    config.partialInputBuffer = spec.partialInputBuffer;
                    config.threads = spec.threads;
                    // Placeholder partition; the engine sweeps these.
                    config.lanes = LanePartition{
                        1, 1, spec.link.lanes - 2 };
                    PROSE_ASSERT(config.totalPes() == spec.peBudget,
                                 "budget arithmetic broke for ",
                                 config.name);
                    mixes.push_back(std::move(config));
                }
            }
        }
    }
    return mixes;
}

} // namespace prose
