/**
 * @file
 * The 8-deep streaming input buffer of Figure 10(a). One buffer fronts
 * each input edge of the array; the host fills it at the link's sustained
 * rate and the array drains one entry (one edge-width vector of bf16
 * elements) per active cycle. If the buffer is empty the array stalls —
 * this is the mechanism the paper sizes with Little's Law.
 */

#ifndef PROSE_SYSTOLIC_STREAM_BUFFER_HH
#define PROSE_SYSTOLIC_STREAM_BUFFER_HH

#include <cstdint>

namespace prose {

/**
 * Rate-based model of a fixed-depth streaming buffer. Occupancy is kept
 * fractional so sub-entry-per-cycle supply rates accumulate correctly.
 */
class StreamBuffer
{
  public:
    /**
     * @param depth capacity in entries (the paper uses 8)
     * @param supply_rate entries arriving per array cycle (may be
     *        fractional or huge for an idealized host)
     */
    StreamBuffer(std::uint32_t depth, double supply_rate);

    /**
     * Split-phase API for lockstep multi-buffer gating: fill first, then
     * check availability on every buffer, then consume from all of them
     * only if all can supply (the array either advances whole or stalls
     * whole).
     */
    void fillTick();

    /** True if at least one whole entry is buffered. */
    bool available() const { return occupancy_ >= 1.0; }

    /** Remove one entry; caller must have checked available(). */
    void consume();

    /** Record that a consume attempt failed this cycle. */
    void noteStall() { ++stalls_; }

    /** Entries (fractional) currently buffered. */
    double occupancy() const { return occupancy_; }

    /** Cycles in which a consume attempt failed. */
    std::uint64_t stallCycles() const { return stalls_; }

    /** Entries consumed so far. */
    std::uint64_t consumed() const { return consumed_; }

    /** Fill ticks applied so far. */
    std::uint64_t fillTicks() const { return fillTicks_; }

    /** Capacity in entries. */
    double depth() const { return depth_; }

    /** @name Fast-forward support @{ */

    /**
     * True when every fill tick provably clamps the buffer to capacity
     * (supply rate >= depth): availability can never fail and the
     * post-operation state has a closed form.
     */
    bool idealSupply() const { return supplyRate_ >= depth_; }

    /**
     * Closed-form advance for an ideal-supply buffer: `cycles` fill
     * ticks of which the first `consumes` also consume one entry
     * (consumes <= cycles). Bit-equal to ticking the recurrence because
     * every fill tick saturates occupancy to exactly `depth`.
     */
    void fastForwardIdeal(std::uint64_t cycles, std::uint64_t consumes);

    /** Snapshot of the complete mutable state (validate mode). */
    struct State
    {
        double occupancy = 0.0;
        std::uint64_t stalls = 0;
        std::uint64_t consumed = 0;
        std::uint64_t fillTicks = 0;
    };

    State state() const;
    void restore(const State &state);

    /** @} */

  private:
    double depth_;
    double supplyRate_;
    double occupancy_ = 0.0;
    std::uint64_t stalls_ = 0;
    std::uint64_t consumed_ = 0;
    std::uint64_t fillTicks_ = 0;
};

} // namespace prose

#endif // PROSE_SYSTOLIC_STREAM_BUFFER_HH
