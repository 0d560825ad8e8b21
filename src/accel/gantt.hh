/**
 * @file
 * ASCII Gantt rendering of a recorded schedule — the Figure 8 picture,
 * drawn from an actual simulation. One row per thread (or per pool),
 * time bucketed into fixed-width columns, each cell showing what the
 * row was doing: '1'/'2'/'3' for Dataflows, 'h' for host work, '.' for
 * idle.
 */

#ifndef PROSE_ACCEL_GANTT_HH
#define PROSE_ACCEL_GANTT_HH

#include <iosfwd>
#include <string>

#include "perf_sim.hh"

namespace prose {

/** Rendering options. */
struct GanttOptions
{
    std::size_t columns = 72;   ///< time buckets across the page
    bool perPool = false;       ///< rows = pools (M/G/E) instead of threads
};

/**
 * Render the schedule of a report recorded with
 * SimOptions::recordSchedule. Each cell is the dominant activity of
 * its row during that time bucket. Very wide thread counts are clipped
 * to the first 40 rows.
 */
void renderGantt(std::ostream &out, const SimReport &report,
                 const GanttOptions &options = GanttOptions{});

} // namespace prose

#endif // PROSE_ACCEL_GANTT_HH
