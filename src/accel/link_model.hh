/**
 * @file
 * Host-accelerator interconnect model. ProSE streams everything over an
 * NVLink-class link whose lanes are statically partitioned among the
 * three systolic-array types (Section 4.2: 6 x 45 GB/s NVLink 2.0 lanes
 * at a conservative 90% of peak). The evaluation sweeps NVLink 2.0/3.0
 * at 80% / 90% achievable rates plus an infinite-bandwidth limit
 * (Figures 18-20).
 */

#ifndef PROSE_ACCEL_LINK_MODEL_HH
#define PROSE_ACCEL_LINK_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "systolic/array_config.hh"

namespace prose {

/**
 * How a task's transfers overlap with its compute (docs/LINK_MODEL.md).
 */
enum class StreamMode : std::uint8_t
{
    /** Pessimistic bound: stream-in, compute, stream-out in series. */
    Serialized,
    /**
     * Per-array-type prefetch queues stream the next tile while the
     * current one computes: steady state runs at the slowest stage,
     * plus a fill/drain ramp of one chunk per non-bounding stage.
     */
    DoubleBuffered,
    /** Infinite buffering reference: max(compute, in, out) exactly. */
    Ideal,
};

const char *toString(StreamMode mode);

/** Streaming/DMA knobs of one ProSE instance (docs/LINK_MODEL.md). */
struct StreamSpec
{
    StreamMode mode = StreamMode::DoubleBuffered;

    /**
     * Chunks resident per direction in the per-type prefetch queue.
     * Depth does not change an uncontended task's duration (steady
     * state is stage-bound either way); it bounds how much shared-link
     * arbitration jitter the prefetcher can hide before the array
     * stalls: up to (depth - 1) chunk-compute times.
     */
    std::uint32_t bufferDepth = 2;

    /** Panics on inconsistent knobs (depth 0, double-buffer depth 1). */
    void validate() const;

    std::string describe() const;
};

/**
 * On-link payload encoding. Both schemes are modeled (closed-form wire
 * bytes), never functional: the simulated values are untouched, only
 * the modeled transfer time shrinks. See docs/LINK_MODEL.md for the
 * byte model and the workload statistics (zero-word and high-byte-hit
 * shares, constants of link_model.cc) that parameterize it.
 */
enum class LinkCompression : std::uint8_t
{
    None,    ///< raw bf16 words
    ZeroRun, ///< zero words collapse into run tokens (zero-skip reuse)
    Delta,   ///< words sharing the predecessor's high byte send 1 byte
};

const char *toString(LinkCompression compression);

/** One host-accelerator link. */
struct LinkSpec
{
    std::string name = "NVLink2-90";
    double totalBytesPerSecond = gbps(270.0);
    std::uint32_t lanes = 6;

    /** On-link compression model. */
    LinkCompression compression = LinkCompression::None;

    /** Bandwidth of one lane. */
    double laneBytesPerSecond() const
    {
        return totalBytesPerSecond / lanes;
    }

    /**
     * The compute-bound limit: stream times are treated as exactly
     * zero, which is what keeps the infinite-link point bit-identical
     * across every StreamMode (docs/LINK_MODEL.md).
     */
    bool isInfinite() const { return totalBytesPerSecond >= 1e17; }

    /**
     * Modeled wire bytes for a logical payload under this link's
     * compression. Deterministic closed form; never exceeds the
     * logical size (encoders fall back to passthrough framing).
     */
    std::uint64_t wireBytes(std::uint64_t logical_bytes) const;

    /** wire/logical ratio of the closed-form model (1.0 for None). */
    double compressionRatio() const;

    /** Panics on a link without lanes or bandwidth. */
    void validate() const;

    /** NVLink 2.0 at 80% achievable: 240 GB/s over 6 lanes. */
    static LinkSpec nvlink2At80();
    /** NVLink 2.0 at 90% achievable: 270 GB/s over 6 lanes. */
    static LinkSpec nvlink2At90();
    /** NVLink 3.0 at 80% achievable: 480 GB/s over 12 lanes. */
    static LinkSpec nvlink3At80();
    /** NVLink 3.0 at 90% achievable: 540 GB/s over 12 lanes. */
    static LinkSpec nvlink3At90();
    /** Idealized infinite link (compute-bound limit). */
    static LinkSpec infinite();

    /** An arbitrary bandwidth with the NVLink 2.0 lane count. */
    static LinkSpec custom(double gigabytes_per_second);

    /** The five link points of Figures 18/19, in paper order. */
    static std::vector<LinkSpec> paperSweep();
};

/** Static split of link lanes across the three array types. */
struct LanePartition
{
    std::uint32_t mLanes = 2;
    std::uint32_t gLanes = 1;
    std::uint32_t eLanes = 3;

    std::uint32_t total() const { return mLanes + gLanes + eLanes; }

    /** Lanes feeding one array type. */
    std::uint32_t lanesFor(ArrayType type) const;

    /** Aggregate bandwidth available to one array type. */
    double bandwidthFor(ArrayType type, const LinkSpec &link) const;

    std::string describe() const;

    /**
     * Every partition of `lanes` into three positive shares (each type
     * must be fed), for the DSE sweep.
     */
    static std::vector<LanePartition> enumerate(std::uint32_t lanes);
};

} // namespace prose

#endif // PROSE_ACCEL_LINK_MODEL_HH
