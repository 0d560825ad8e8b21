#include "link_model.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace prose {

namespace {

/** Share of streamed bf16 words that quantize to +-0 (ZeroRun) — the
 *  sparsity the matmul zero-skip fast path exploits, showing up again
 *  on the wire. A workload constant; a conservative quarter. */
constexpr double kZeroFraction = 0.25;
/** Share of words whose high byte (sign + exponent + mantissa MSB)
 *  matches their predecessor's (Delta). */
constexpr double kDeltaHitFraction = 0.5;
/** Mean zero-run length (bf16 words) the ZeroRun encoder assumes. */
constexpr double kZeroRunWords = 16.0;
/** Per-word framing overhead: one tag bit per 16-bit word. */
constexpr double kTagBitOverhead = 1.0 / 16.0;
/** Per-block header overhead of the Delta encoder (1 byte / 64 words). */
constexpr double kDeltaHeaderOverhead = 1.0 / 128.0;

} // namespace

const char *
toString(StreamMode mode)
{
    switch (mode) {
      case StreamMode::Serialized:
        return "serialized";
      case StreamMode::DoubleBuffered:
        return "double-buffered";
      case StreamMode::Ideal:
        return "ideal";
    }
    return "?";
}

const char *
toString(LinkCompression compression)
{
    switch (compression) {
      case LinkCompression::None:
        return "none";
      case LinkCompression::ZeroRun:
        return "zero-run";
      case LinkCompression::Delta:
        return "delta";
    }
    return "?";
}

void
StreamSpec::validate() const
{
    PROSE_ASSERT(bufferDepth >= 1, "stream buffer depth must be >= 1");
    PROSE_ASSERT(mode != StreamMode::DoubleBuffered || bufferDepth >= 2,
                 "double buffering needs at least two buffers per "
                 "direction (got ", bufferDepth, ")");
}

std::string
StreamSpec::describe() const
{
    std::ostringstream os;
    os << toString(mode);
    if (mode == StreamMode::DoubleBuffered)
        os << "x" << bufferDepth;
    return os.str();
}

double
LinkSpec::compressionRatio() const
{
    double ratio = 1.0;
    switch (compression) {
      case LinkCompression::None:
        return 1.0;
      case LinkCompression::ZeroRun:
        // Nonzero words verbatim; zero words collapse into one 2-byte
        // run token per mean run; one tag bit per word of framing.
        ratio = (1.0 - kZeroFraction) + kZeroFraction / kZeroRunWords +
                kTagBitOverhead;
        break;
      case LinkCompression::Delta:
        // Hit words send only their low byte; misses go verbatim; one
        // header byte per 64-word block.
        ratio = (1.0 - kDeltaHitFraction) + kDeltaHitFraction / 2.0 +
                kDeltaHeaderOverhead;
        break;
    }
    // Real encoders keep a passthrough frame, so modeled compression
    // never expands the payload.
    return std::min(ratio, 1.0);
}

std::uint64_t
LinkSpec::wireBytes(std::uint64_t logical_bytes) const
{
    if (compression == LinkCompression::None || logical_bytes == 0)
        return logical_bytes;
    const double wire =
        std::ceil(static_cast<double>(logical_bytes) * compressionRatio());
    return std::min(logical_bytes,
                    static_cast<std::uint64_t>(wire));
}

void
LinkSpec::validate() const
{
    PROSE_ASSERT(lanes > 0, "link needs at least one lane");
    PROSE_ASSERT(totalBytesPerSecond > 0.0, "non-positive link bandwidth");
}

LinkSpec
LinkSpec::nvlink2At80()
{
    return LinkSpec{ "NVLink2.0@80% 240GB/s", gbps(240.0), 6 };
}

LinkSpec
LinkSpec::nvlink2At90()
{
    return LinkSpec{ "NVLink2.0@90% 270GB/s", gbps(270.0), 6 };
}

LinkSpec
LinkSpec::nvlink3At80()
{
    return LinkSpec{ "NVLink3.0@80% 480GB/s", gbps(480.0), 12 };
}

LinkSpec
LinkSpec::nvlink3At90()
{
    return LinkSpec{ "NVLink3.0@90% 540GB/s", gbps(540.0), 12 };
}

LinkSpec
LinkSpec::infinite()
{
    return LinkSpec{ "Infinite", 1e18, 6 };
}

LinkSpec
LinkSpec::custom(double gigabytes_per_second)
{
    std::ostringstream name;
    name << gigabytes_per_second << "GB/s";
    return LinkSpec{ name.str(), gbps(gigabytes_per_second), 6 };
}

std::vector<LinkSpec>
LinkSpec::paperSweep()
{
    return { nvlink2At80(), nvlink2At90(), nvlink3At80(), nvlink3At90(),
             infinite() };
}

std::uint32_t
LanePartition::lanesFor(ArrayType type) const
{
    switch (type) {
      case ArrayType::M:
        return mLanes;
      case ArrayType::G:
        return gLanes;
      case ArrayType::E:
        return eLanes;
    }
    return 0;
}

double
LanePartition::bandwidthFor(ArrayType type, const LinkSpec &link) const
{
    PROSE_ASSERT(total() == link.lanes,
                 "lane partition (", total(), ") does not cover the link (",
                 link.lanes, " lanes)");
    return lanesFor(type) * link.laneBytesPerSecond();
}

std::string
LanePartition::describe() const
{
    std::ostringstream os;
    os << "M:" << mLanes << " G:" << gLanes << " E:" << eLanes;
    return os.str();
}

std::vector<LanePartition>
LanePartition::enumerate(std::uint32_t lanes)
{
    PROSE_ASSERT(lanes >= 3, "need at least one lane per type");
    std::vector<LanePartition> out;
    for (std::uint32_t m = 1; m + 2 <= lanes; ++m)
        for (std::uint32_t g = 1; m + g + 1 <= lanes; ++g)
            out.emplace_back(m, g, lanes - m - g);
    return out;
}

} // namespace prose
