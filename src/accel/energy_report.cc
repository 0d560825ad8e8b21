#include "energy_report.hh"

#include "common/logging.hh"
#include "power/component_db.hh"

namespace prose {

namespace {

/**
 * Fraction of an array's Table 2 power it burns while idle (clock
 * gating leaves leakage + clock tree). Synthesized SRAM-free arrays
 * idle low.
 */
constexpr double kIdlePowerFraction = 0.3;

/** Link SerDes energy per byte moved (NVLink-class). */
constexpr double kLinkJoulesPerByte = 25e-12;

} // namespace

double
EnergyReport::totalJoules() const
{
    double total = cpuJoules + dramJoules + linkJoules;
    for (std::size_t i = 0; i < 3; ++i)
        total += arrayBusyJoules[i] + arrayIdleJoules[i];
    return total;
}

double
EnergyReport::joulesPerInference(const SimReport &report) const
{
    PROSE_ASSERT(report.inferences > 0, "no inferences in the run");
    return totalJoules() / static_cast<double>(report.inferences);
}

EnergyReport
buildEnergyReport(const ProseConfig &config, const SimReport &report)
{
    PROSE_ASSERT(report.makespan > 0.0, "energy report needs a run");
    EnergyReport energy;
    const ComponentDb &db = ComponentDb::instance();

    // Per-type array energy: the report tallies busy seconds summed
    // over the pool's arrays; the remainder of (makespan x count)
    // idles at the gated fraction.
    for (std::size_t idx = 0; idx < config.groups.size(); ++idx) {
        const ArrayGroupSpec &pool = config.groups[idx];
        const double watts = db.arrayPowerWatts(
            pool.geometry, config.partialInputBuffer);
        const double busy = report.typeBusySeconds[idx];
        const double total_span = report.makespan * pool.count;
        const double idle = std::max(0.0, total_span - busy);
        energy.arrayBusyJoules[idx] = busy * watts;
        energy.arrayIdleJoules[idx] = idle * watts * kIdlePowerFraction;
    }

    energy.cpuJoules =
        report.cpuDuty * kHostCpuActiveWatts * report.makespan;
    energy.dramJoules = kHostDramWatts * report.makespan;
    energy.linkJoules =
        static_cast<double>(report.bytesIn + report.bytesOut) *
        kLinkJoulesPerByte;
    return energy;
}

} // namespace prose
