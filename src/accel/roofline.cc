#include "roofline.hh"

#include <algorithm>

#include "common/logging.hh"

namespace prose {

double
PoolRoofline::kneeBandwidth() const
{
    if (computeSeconds <= 0.0 || laneShare <= 0.0)
        return 0.0;
    // stream_time = bytes / (link * share) == computeSeconds at the knee.
    return static_cast<double>(wireStreamBytes) /
           (computeSeconds * laneShare);
}

const PoolRoofline &
RooflineAnalysis::boundingPool() const
{
    return *std::max_element(pools.begin(), pools.end(),
                             [](const PoolRoofline &a,
                                const PoolRoofline &b) {
                                 return a.computeSeconds <
                                        b.computeSeconds;
                             });
}

double
RooflineAnalysis::saturationBandwidth() const
{
    double knee = 0.0;
    for (const PoolRoofline &pool : pools)
        knee = std::max(knee, pool.kneeBandwidth());
    return knee;
}

bool
RooflineAnalysis::linkBoundAt(double link_bytes_per_second) const
{
    PROSE_ASSERT(link_bytes_per_second > 0.0,
                 "non-positive link bandwidth");
    for (const PoolRoofline &pool : pools) {
        if (pool.laneShare <= 0.0)
            continue;
        const double stream =
            static_cast<double>(pool.wireStreamBytes) /
            (link_bytes_per_second * pool.laneShare);
        if (stream > pool.computeSeconds)
            return true;
    }
    return false;
}

RooflineAnalysis
analyzeRoofline(const ProseConfig &config, const BertShape &shape)
{
    config.validate();
    RooflineAnalysis analysis;

    const TimingModel timing(config.partialInputBuffer);
    const auto tasks =
        DataflowBuilder{}.build(synthesizeBertTrace(shape));

    for (std::size_t idx = 0; idx < 3; ++idx) {
        analysis.pools[idx].type = kArrayTypes[idx];
        analysis.pools[idx].laneShare =
            static_cast<double>(config.lanes.lanesFor(kArrayTypes[idx])) /
            config.link.lanes;
    }
    for (const DataflowTask &task : tasks) {
        if (task.kind == DataflowKind::Host)
            continue;
        const std::size_t idx = typeIndex(arrayTypeFor(task.kind));
        const ArrayGroupSpec &pool = config.groups[idx];
        const TaskCost cost = timing.costTask(task, pool.geometry);
        analysis.pools[idx].computeSeconds +=
            cost.computeSeconds(pool.geometry) / pool.count;
        analysis.pools[idx].streamBytes +=
            std::max(cost.bytesIn, cost.bytesOut);
        analysis.pools[idx].wireStreamBytes +=
            std::max(config.link.wireBytes(cost.bytesIn),
                     config.link.wireBytes(cost.bytesOut));
    }
    return analysis;
}

} // namespace prose
