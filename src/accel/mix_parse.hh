/**
 * @file
 * Text parsing of ProSE configuration mixes and lane partitions, so the
 * CLI tools can drive arbitrary designs:
 *
 *   mix:   "M64x2,G16x10,E16x22"   (type, array dim, count; ',' sep)
 *   lanes: "3,1,2"                 (M, G, E lane counts)
 */

#ifndef PROSE_ACCEL_MIX_PARSE_HH
#define PROSE_ACCEL_MIX_PARSE_HH

#include <string>

#include "prose_config.hh"

namespace prose {

/**
 * Parse a mix specification into the M, G and E pools, whatever order
 * the spec lists them in. Fatal on malformed input (user error). Every
 * type may appear at most once; a missing type leaves its pool's count
 * at 0, which configFromSpec rejects.
 */
ArrayPools parseMixSpec(const std::string &spec);

/** Parse an "M,G,E" lane partition. Fatal on malformed input. */
LanePartition parseLaneSpec(const std::string &spec);

/**
 * Build a full ProseConfig from mix/lane strings on a link. The name
 * is the mix spec itself.
 */
ProseConfig configFromSpec(const std::string &mix_spec,
                           const std::string &lane_spec,
                           const LinkSpec &link);

} // namespace prose

#endif // PROSE_ACCEL_MIX_PARSE_HH
