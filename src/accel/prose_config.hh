/**
 * @file
 * A complete ProSE instance configuration: the heterogeneous array mix
 * (one pool per array type), the link and its lane partition, the
 * partial-input-buffer option, and the software thread count. Includes
 * the six named configurations of Table 4.
 */

#ifndef PROSE_ACCEL_PROSE_CONFIG_HH
#define PROSE_ACCEL_PROSE_CONFIG_HH

#include <cstdint>
#include <string>

#include "link_model.hh"
#include "power/power_model.hh"
#include "systolic/array_config.hh"

namespace prose {

/** One ProSE accelerator card plus its software knobs. */
struct ProseConfig
{
    std::string name = "prose";
    /** The M, G and E pools, in that order (slot typeIndex(t)). */
    ArrayPools groups;
    LinkSpec link = LinkSpec::nvlink2At90();
    LanePartition lanes;
    /** DMA streaming model (overlap mode + prefetch depth). */
    StreamSpec streaming;
    bool partialInputBuffer = true;
    std::uint32_t threads = 32;

    /** Total processing elements across all arrays. */
    std::uint64_t totalPes() const;

    /** Panics unless every slot holds its own type with at least one
     *  array and the lane partition covers the link. */
    void validate() const;

    std::string describe() const;

    /** @name Table 4 configurations @{ */
    /** BestPerf: 2x 64 M, 10x 16 G, 22x 16 E (16K PEs). */
    static ProseConfig bestPerf();
    /** MostEfficient: 2x 64 M, 3x 32 G, 20x 16 E (16K PEs). */
    static ProseConfig mostEfficient();
    /** Homogeneous: 2x 64 M, 1x 64 G, 1x 64 E (16K PEs). */
    static ProseConfig homogeneous();
    /** BestPerf+: 2x 64 M, 5x 32 G, 7x 32 E (20K PEs). */
    static ProseConfig bestPerfPlus();
    /** MostEfficient+: same mix as BestPerf+ (the DSE coincided). */
    static ProseConfig mostEfficientPlus();
    /** Homogeneous+: 2x 64 M, 1x 64 G, 2x 64 E (20K PEs). */
    static ProseConfig homogeneousPlus();
    /** The Figure 4 strawman: four 64x64 arrays (one TPU-core worth). */
    static ProseConfig fourBy64Homogeneous();
    /** @} */
};

} // namespace prose

#endif // PROSE_ACCEL_PROSE_CONFIG_HH
