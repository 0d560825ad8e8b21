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
#include <vector>

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
     * Advance one cycle of filling; then try to consume one entry.
     * @return true if an entry was available (array advances), false if
     *         the array must stall this cycle.
     */
    bool tick();

    /** Advance one cycle of filling without consuming (array idle). */
    void tickNoConsume();

    /**
     * Split-phase API for lockstep multi-buffer gating: fill first, then
     * check availability on every buffer, then consume from all of them
     * only if all can supply (the array either advances whole or stalls
     * whole).
     */
    void fillTick() { tickNoConsume(); }

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

    /** Fill ticks applied so far (uniform or scheduled). */
    std::uint64_t fillTicks() const { return fillTicks_; }

    /** Reset occupancy and counters (new transfer). */
    void reset();

    /** Pre-fill to capacity (back-to-back transfers with a warm link). */
    void fill();

    /** Capacity in entries. */
    double depth() const { return depth_; }

    /** Configured uniform supply rate (entries per cycle). */
    double supplyRate() const { return supplyRate_; }

    /** @name Fill profiles and fast-forward support @{ */

    /**
     * Install a non-uniform fill profile: fill tick t adds
     * rates[t % rates.size()] entries instead of the uniform supply
     * rate. An empty vector restores the uniform profile. Both engines
     * replay a profile tick by tick; only the closed-form advance
     * (idealSupply()) is ruled out.
     */
    void setFillProfile(std::vector<double> rates);

    /** True when the buffer fills at one constant rate every cycle. */
    bool uniformFill() const { return fillProfile_.empty(); }

    /**
     * True when every fill tick provably clamps the buffer to capacity
     * (uniform supply rate >= depth): availability can never fail and
     * the post-operation state has a closed form.
     */
    bool idealSupply() const
    {
        return uniformFill() && supplyRate_ >= depth_;
    }

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
    /** Entries added by the next fill tick. */
    double nextFillRate() const;

    double depth_;
    double supplyRate_;
    std::vector<double> fillProfile_; ///< empty = uniform supplyRate_
    double occupancy_ = 0.0;
    std::uint64_t stalls_ = 0;
    std::uint64_t consumed_ = 0;
    std::uint64_t fillTicks_ = 0;
};

} // namespace prose

#endif // PROSE_SYSTOLIC_STREAM_BUFFER_HH
