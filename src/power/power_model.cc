#include "power_model.hh"

#include "common/logging.hh"

namespace prose {

double
PowerModel::arrayPowerWatts(const ArrayPools &groups, bool with_buffer) const
{
    const ComponentDb &db = ComponentDb::instance();
    double watts = 0.0;
    for (const auto &group : groups)
        watts += group.count * db.arrayPowerWatts(group.geometry,
                                                  with_buffer);
    return watts;
}

double
PowerModel::arrayAreaMm2(const ArrayPools &groups, bool with_buffer) const
{
    const ComponentDb &db = ComponentDb::instance();
    double mm2 = 0.0;
    for (const auto &group : groups)
        mm2 += group.count * db.arrayAreaMm2(group.geometry, with_buffer);
    return mm2;
}

double
PowerModel::systemPowerWatts(const ArrayPools &groups, bool with_buffer,
                             double cpu_duty) const
{
    PROSE_ASSERT(cpu_duty >= 0.0 && cpu_duty <= 1.0,
                 "cpu duty cycle out of [0, 1]");
    return arrayPowerWatts(groups, with_buffer) +
           cpu_duty * kHostCpuActiveWatts + kHostDramWatts;
}

} // namespace prose
