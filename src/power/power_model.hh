/**
 * @file
 * Aggregate power/area/energy model for a ProSE instance, following the
 * paper's methodology (Section 4.1): array power from the Table 2
 * component library; host CPU power measured-style as a duty-cycled
 * 50.21 W under-ProSE-load figure; DRAM at 6.23 W (cold-miss traffic
 * only, since intermediates live in the host L3).
 */

#ifndef PROSE_POWER_POWER_MODEL_HH
#define PROSE_POWER_POWER_MODEL_HH

#include <array>
#include <cstdint>

#include "component_db.hh"

namespace prose {

/** One homogeneous slice of a heterogeneous configuration. */
struct ArrayGroupSpec
{
    ArrayGeometry geometry;
    std::uint32_t count = 0;
};

/** One pool per array type: slot typeIndex(t) holds type t's arrays. */
using ArrayPools = std::array<ArrayGroupSpec, kArrayTypes.size()>;

/** Host CPU package power while serving ProSE (paper's RAPL reading). */
constexpr double kHostCpuActiveWatts = 50.21;

/** Host DRAM power under ProSE load (paper's RAPL reading). */
constexpr double kHostDramWatts = 6.23;

/** Power/area roll-up of one configuration. */
class PowerModel
{
  public:
    /** Sum of array powers (watts). */
    double arrayPowerWatts(const ArrayPools &groups, bool with_buffer) const;

    /** Sum of array areas (mm^2). */
    double arrayAreaMm2(const ArrayPools &groups, bool with_buffer) const;

    /**
     * Whole-system power: arrays + duty-cycled CPU + DRAM.
     * @param cpu_duty fraction of wall-clock the host CPU spends serving
     *        ProSE (the paper measured 21.4%)
     */
    double systemPowerWatts(const ArrayPools &groups, bool with_buffer,
                            double cpu_duty) const;
};

} // namespace prose

#endif // PROSE_POWER_POWER_MODEL_HH
