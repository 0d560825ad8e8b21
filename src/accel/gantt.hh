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

/** Time buckets across the page. */
constexpr std::size_t kGanttColumns = 68;

/**
 * Render the schedule of a report recorded with
 * SimOptions::recordSchedule. Each cell is the dominant activity of
 * its row during that time bucket. Very wide thread counts are clipped
 * to the first 40 rows.
 *
 * @param per_pool one row per pool (M/G/E) instead of per thread
 */
void renderGantt(std::ostream &out, const SimReport &report,
                 bool per_pool);

} // namespace prose

#endif // PROSE_ACCEL_GANTT_HH
