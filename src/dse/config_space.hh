/**
 * @file
 * Enumeration of the ProSE hardware configuration space (Table 3): mixes
 * of M/G/E systolic-array types, sizes, and counts under a fixed
 * processing-element budget, crossed with static link-lane partitions.
 */

#ifndef PROSE_DSE_CONFIG_SPACE_HH
#define PROSE_DSE_CONFIG_SPACE_HH

#include <cstdint>
#include <vector>

#include "accel/prose_config.hh"

namespace prose {

/** Table 3's 64x64 M-Type count bound. */
constexpr std::uint32_t kMaxMCount = 3;

/** Bounds of the Table 3 exploration. */
struct ConfigSpaceSpec
{
    std::uint64_t peBudget = 16384;  ///< total PEs (one TPU core worth)
    std::uint32_t maxCount32 = 15;   ///< 32x32 G/E count bound
    std::uint32_t maxCount16 = 31;   ///< 16x16 G/E count bound
    LinkSpec link = LinkSpec::nvlink2At90();
    bool partialInputBuffer = true;
    std::uint32_t threads = 32;
};

/**
 * Enumerate every array mix meeting the budget exactly: M-Type fixed at
 * 64x64 (smaller M-Types are never performance-competitive — the paper
 * prunes them too), G and E each either 16x16 or 32x32, every type
 * present, counts within the Table 3 bounds. Lane partitions are NOT
 * expanded here; the engine sweeps them per mix.
 */
std::vector<ProseConfig> enumerateMixes(const ConfigSpaceSpec &spec);

} // namespace prose

#endif // PROSE_DSE_CONFIG_SPACE_HH
