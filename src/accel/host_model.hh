/**
 * @file
 * Model of the host-CPU side of a ProSE system: the dual-socket Xeon
 * Gold 6140M the paper uses (36C/72T @ 2.3 GHz, 128 GiB DDR4). The host
 * executes the softmax row-sum/divide of Dataflow 3 plus the "Other" ops
 * (LayerNorm, embedding gather, transposes), all of which are
 * memory-bandwidth-bound streaming passes over intermediate data that
 * mostly lives in the L3.
 */

#ifndef PROSE_ACCEL_HOST_MODEL_HH
#define PROSE_ACCEL_HOST_MODEL_HH

#include <cstdint>

#include "trace/op.hh"

namespace prose {

/** Per-task fixed host overhead: kernel launch / thread wakeup. */
constexpr double kHostTaskOverheadSeconds = 2e-6;

/** Throughput/parallelism parameters of the host CPU. */
struct HostSpec
{
    /**
     * Aggregate elementwise throughput (elements/s) for streaming passes
     * such as softmax sum/divide. A dual-socket Skylake sustains roughly
     * 200 GB/s out of L3; a softmax pass touches each bf16 element a few
     * times, giving ~2.5e10 elements/s in aggregate.
     */
    double elemThroughput = 2.5e10;

    /**
     * Concurrent streaming tasks the memory system sustains before
     * bandwidth saturates (NUMA nodes x memory channels, coarsely).
     */
    std::uint32_t slots = 16;

    /**
     * Cores ganged onto one Dataflow 3 softmax batch. The exp results
     * of a whole per-thread attention batch arrive as one large
     * streaming region, which the runtime splits across several
     * workers ("batches CPU-essential operations like softmax
     * efficiently via streaming", Section 3.2).
     */
    std::uint32_t softmaxGang = 8;

    /** Per-slot throughput (elements/s). */
    double slotThroughput() const
    {
        return elemThroughput / slots;
    }
};

/** Time model for host-executed work. */
class HostModel
{
  public:
    explicit HostModel(HostSpec spec = HostSpec{});

    /** Seconds one host slot needs for a softmax sum/divide pass. */
    double softmaxSeconds(std::uint64_t elems) const;

    /** Seconds one host slot needs for a host op (LayerNorm etc.). */
    double hostOpSeconds(const Op &op) const;

    const HostSpec &spec() const { return spec_; }

  private:
    HostSpec spec_;
};

} // namespace prose

#endif // PROSE_ACCEL_HOST_MODEL_HH
