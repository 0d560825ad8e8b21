#include "energy_report.hh"

#include "common/logging.hh"
#include "power/component_db.hh"

namespace prose {

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
buildEnergyReport(const ProseConfig &config, const SimReport &report,
                  const EnergySpec &spec)
{
    PROSE_ASSERT(report.makespan > 0.0, "energy report needs a run");
    EnergyReport energy;
    const ComponentDb &db = ComponentDb::instance();

    // Per-type array energy: the report tallies busy seconds summed
    // over the type's instances; the remainder of (makespan x count)
    // idles at the gated fraction.
    for (const ArrayGroupSpec &group : config.groups) {
        const std::size_t idx = typeIndex(group.geometry.type);
        const double watts = db.arrayPowerWatts(
            group.geometry, config.partialInputBuffer);
        const double type_count = report.typeCounts[idx];
        if (type_count == 0)
            continue;
        // The group's share of the type's busy seconds, proportional
        // to its instance count (groups of one type share one size in
        // our configs, so this is exact).
        const double share = group.count / type_count;
        const double busy = report.typeBusySeconds[idx] * share;
        const double total_span = report.makespan * group.count;
        const double idle = std::max(0.0, total_span - busy);
        energy.arrayBusyJoules[idx] += busy * watts;
        energy.arrayIdleJoules[idx] +=
            idle * watts * spec.idlePowerFraction;
    }

    energy.cpuJoules = report.cpuDuty * spec.host.cpuActiveWatts *
                       report.makespan;
    energy.dramJoules = spec.host.dramWatts * report.makespan;
    energy.linkJoules =
        static_cast<double>(report.bytesIn + report.bytesOut) *
        spec.linkJoulesPerByte;
    return energy;
}

} // namespace prose
