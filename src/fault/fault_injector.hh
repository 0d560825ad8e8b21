/**
 * @file
 * Seeded, deterministic fault injector. One injector carries out one
 * CampaignSpec: the systolic layer asks it to corrupt accumulator
 * regions after each tile matmul, the performance simulator asks it
 * whether a link transfer attempt faulted, and the schedulers query its
 * array/instance kill schedule. Every fault it produces is appended to
 * an event log whose text form is bit-identical across runs with the
 * same spec — the replay guarantee the campaign tests rely on.
 *
 * The injector deliberately knows nothing about SystolicArray, PerfSim
 * or ProseSystem; call sites identify themselves with small site ids
 * ("M0", 'E', instance numbers), which keeps this library at the bottom
 * of the dependency stack (common + numerics only).
 */

#ifndef PROSE_FAULT_FAULT_INJECTOR_HH
#define PROSE_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign.hh"
#include "common/random.hh"

namespace prose {

class FaultInjector
{
  public:
    /** Validates the spec and records its scheduled kill events. */
    explicit FaultInjector(CampaignSpec spec);

    const CampaignSpec &spec() const { return spec_; }

    /**
     * Apply the campaign's accumulator faults to one live tile region:
     * transient single-bit flips at acc_flip_rate per cell, then any
     * stuck bits whose site matches. Called by SystolicArray after each
     * matmulTile; a null injector means the hot loop is untouched.
     *
     * @param site array site id (e.g. "M0")
     * @param acc the n x n accumulator backing store
     * @param stride row stride of `acc` (the array dimension n)
     * @param rows live rows
     * @param cols live columns
     * @return corrupted cells (flips plus value-changing stuck bits)
     */
    std::size_t corruptAccumulators(const std::string &site, float *acc,
                                    std::size_t stride, std::size_t rows,
                                    std::size_t cols);

    /**
     * True when corruptAccumulators(site, ...) could draw from the RNG
     * or corrupt a cell at this site: the campaign sets a transient
     * accumulator flip rate (site-independent) or schedules a stuck bit
     * whose site matches. Const and RNG-free, so the systolic layer can
     * consult it per tile (the fault-campaign reports count armed
     * calls with it; docs/FAULT_MODEL.md).
     */
    bool armsAccumulators(const std::string &site) const;

    /** Outcome of one link transfer attempt. */
    struct LinkOutcome
    {
        bool error = false;   ///< corrupted transfer, retry immediately
        bool timeout = false; ///< hung transfer, retry after timeout
        bool faulty() const { return error || timeout; }
    };

    /**
     * Sample one transfer attempt on the lane share of one array type
     * ('M'/'G'/'E'). Always consumes the same number of RNG draws so
     * the stream stays aligned across fault-free and faulty runs.
     */
    LinkOutcome sampleLinkTransfer(char type_code);

    /** Arrays of one type dead at simulated time `now`. */
    std::uint32_t deadArrays(char type_code, double now) const;

    /** Earliest *time-scheduled* kill of an instance, or +infinity if
     *  never. Arrival-indexed kills are not included — resolve them
     *  against an arrival stream via instanceKillArrival(). */
    double instanceKillSeconds(std::uint32_t instance) const;

    /** No arrival-indexed kill scheduled for the instance. */
    static constexpr std::uint64_t kNoArrivalKill =
        ~static_cast<std::uint64_t>(0);

    /**
     * Earliest arrival-indexed kill of an instance: the request-stream
     * index at which it dies, or kNoArrivalKill. The serving layer maps
     * the index to that request's arrival time (an index past the end
     * of the stream never fires).
     */
    std::uint64_t instanceKillArrival(std::uint32_t instance) const;

    /** The deterministic fault/recovery event log. */
    const std::vector<FaultEvent> &events() const { return events_; }

    /** Full log, one FaultEvent::describe() line per event. */
    std::string eventLogText() const;

    /** Re-seed from the spec and clear the log (fresh campaign run). */
    void reset();

  private:
    void record(FaultKind kind, std::string site, std::uint32_t row,
                std::uint32_t col, std::uint32_t bit, double at_seconds);

    CampaignSpec spec_;
    Rng rng_;
    std::vector<FaultEvent> events_;
};

} // namespace prose

#endif // PROSE_FAULT_FAULT_INJECTOR_HH
