/**
 * @file
 * Per-run energy breakdown: turns a SimReport and its configuration
 * into joules per component — busy/idle array energy by type, the
 * duty-cycled host CPU, DRAM, and link SerDes energy per byte — plus
 * per-inference figures. This grounds the Figure 19 efficiency claims
 * in an explicit energy ledger instead of a single power scalar.
 */

#ifndef PROSE_ACCEL_ENERGY_REPORT_HH
#define PROSE_ACCEL_ENERGY_REPORT_HH

#include <array>

#include "perf_sim.hh"
#include "power/power_model.hh"

namespace prose {

/** The ledger. */
struct EnergyReport
{
    /** Busy + idle energy per array type (M, G, E), joules. */
    std::array<double, 3> arrayBusyJoules{ { 0.0, 0.0, 0.0 } };
    std::array<double, 3> arrayIdleJoules{ { 0.0, 0.0, 0.0 } };
    double cpuJoules = 0.0;
    double dramJoules = 0.0;
    double linkJoules = 0.0;

    double totalJoules() const;
    /** Joules per inference of the run. */
    double joulesPerInference(const SimReport &report) const;
};

/**
 * Build the ledger for a finished run. Array busy seconds come from the
 * report's per-type tallies; idle = (makespan - busy/count) per array,
 * burning 30% of the array's Table 2 power; the link costs 25 pJ per
 * byte moved; the host draws kHostCpuActiveWatts and kHostDramWatts.
 */
EnergyReport buildEnergyReport(const ProseConfig &config,
                               const SimReport &report);

} // namespace prose

#endif // PROSE_ACCEL_ENERGY_REPORT_HH
