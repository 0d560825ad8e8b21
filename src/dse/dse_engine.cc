#include "dse_engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baseline/platform.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "numerics/bfloat16.hh"
#include "power/power_model.hh"
#include "systolic/functional_sim.hh"

namespace prose {

std::vector<std::size_t>
paretoFront(const std::vector<double> &xs, const std::vector<double> &ys)
{
    PROSE_ASSERT(xs.size() == ys.size(), "pareto coordinate mismatch");
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < xs.size() && !dominated; ++j) {
            if (j == i)
                continue;
            const bool le = xs[j] <= xs[i] && ys[j] <= ys[i];
            const bool lt = xs[j] < xs[i] || ys[j] < ys[i];
            dominated = le && lt;
        }
        if (!dominated)
            front.push_back(i);
    }
    return front;
}

DseEngine::DseEngine(DseWorkload workload)
    : workload_(workload)
{
    const auto a100 = makeA100();
    const OpTrace trace = synthesizeBertTrace(workload_.shape);
    // The paper compares accelerated portions (Figure 3 minus Other).
    a100Seconds_ = a100->costTrace(trace).acceleratedSeconds;
}

DsePoint
DseEngine::evaluate(const ProseConfig &config) const
{
    PerfSim sim(config);
    const SimReport report = sim.run(workload_.shape);

    DsePoint point;
    point.config = config;
    point.runtimeSeconds = report.makespan;
    point.runtimeVsA100 = report.makespan / a100Seconds_;
    point.inferencesPerSecond = report.inferencesPerSecond();
    point.cpuDuty = report.cpuDuty;

    const PowerModel power;
    point.powerWatts = power.arrayPowerWatts(config.groups,
                                             config.partialInputBuffer);
    point.areaMm2 = power.arrayAreaMm2(config.groups,
                                       config.partialInputBuffer);
    return point;
}

DseValidationReport
DseEngine::validate(const ProseConfig &config, FsimMode mode) const
{
    config.validate();
    const ArrayGeometry &m_geom =
        config.groups[typeIndex(ArrayType::M)].geometry;
    const ArrayGeometry &g_geom =
        config.groups[typeIndex(ArrayType::G)].geometry;
    const ArrayGeometry &e_geom =
        config.groups[typeIndex(ArrayType::E)].geometry;

    FunctionalSimulator fsim(m_geom, g_geom, e_geom);
    fsim.setMode(mode);

    DseValidationReport report;
    report.mode = mode;
    Rng rng(0xD5E);

    // Dataflow 1 probe, sized to force partial edge tiles on the
    // M geometry, with an exact host bf16 reference: the array chain is
    // drain(quantize(truncate(A x B) * quantize(alpha))).
    {
        const std::size_t m = m_geom.dim + m_geom.dim / 2;
        const std::size_t k = m_geom.dim / 2 + 3;
        const std::size_t n = m_geom.dim + 2;
        Matrix a(m, k), b(k, n);
        a.fillGaussian(rng, 0.0f, 1.0f);
        b.fillGaussian(rng, 0.0f, 1.0f);
        const float alpha = 0.59375f; // exactly representable in bf16
        const Matrix out = fsim.dataflow1(a, b, alpha, nullptr);
        const Matrix mm = matmulBf16(a, b);
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                const float expected = quantizeBf16(
                    truncateBf16(mm(i, j)) * quantizeBf16(alpha));
                report.maxAbsError =
                    std::max(report.maxAbsError,
                             std::fabs(out(i, j) - expected));
            }
        }
        report.modelMatmulCycles +=
            TimingModel::matmulCycles(m, k, n, m_geom.dim);
        report.expectedMacCount +=
            static_cast<std::uint64_t>(m) * k * n;
    }

    // Dataflow 2 probe (GELU path) on the G geometry.
    {
        const std::size_t m = g_geom.dim + g_geom.dim / 2;
        const std::size_t k = 17;
        const std::size_t n = g_geom.dim + 1;
        Matrix a(m, k), b(k, n), bias(1, n);
        a.fillGaussian(rng, 0.0f, 1.0f);
        b.fillGaussian(rng, 0.0f, 1.0f);
        bias.fillGaussian(rng, 0.0f, 1.0f);
        fsim.dataflow2(a, b, 1.0f, &bias);
        report.modelMatmulCycles +=
            TimingModel::matmulCycles(m, k, n, g_geom.dim);
        report.expectedMacCount +=
            static_cast<std::uint64_t>(m) * k * n;
    }

    // Dataflow 3 probe (attention with the host-softmax trip) on the
    // E geometry, batch 2: Q K^T then P V per batch element.
    {
        const std::size_t seq = e_geom.dim + e_geom.dim / 2;
        const std::size_t dk = e_geom.dim;
        std::vector<Matrix> q, k, v;
        for (int batch = 0; batch < 2; ++batch) {
            q.emplace_back(seq, dk);
            k.emplace_back(seq, dk);
            v.emplace_back(seq, dk);
            q.back().fillGaussian(rng, 0.0f, 1.0f);
            k.back().fillGaussian(rng, 0.0f, 1.0f);
            v.back().fillGaussian(rng, 0.0f, 1.0f);
        }
        fsim.dataflow3(q, k, v, 0.25f);
        report.modelMatmulCycles +=
            2 * (TimingModel::matmulCycles(seq, dk, seq, e_geom.dim) +
                 TimingModel::matmulCycles(seq, seq, dk, e_geom.dim));
        report.expectedMacCount +=
            2 * (static_cast<std::uint64_t>(seq) * dk * seq +
                 static_cast<std::uint64_t>(seq) * seq * dk);
    }

    report.fsimMatmulCycles = fsim.matmulCycles();
    report.macCount = fsim.macCount();
    report.ok = report.maxAbsError == 0.0f &&
                report.fsimMatmulCycles == report.modelMatmulCycles &&
                report.macCount == report.expectedMacCount;
    return report;
}

DsePoint
DseEngine::evaluateBestLanes(const ProseConfig &mix) const
{
    DsePoint best;
    best.runtimeSeconds = std::numeric_limits<double>::infinity();
    for (const LanePartition &lanes :
         LanePartition::enumerate(mix.link.lanes)) {
        ProseConfig candidate = mix;
        candidate.lanes = lanes;
        const DsePoint point = evaluate(candidate);
        if (point.runtimeSeconds < best.runtimeSeconds)
            best = point;
    }
    return best;
}

DseSelection
DseEngine::explore(const ConfigSpaceSpec &spec) const
{
    DseSelection selection;
    const std::vector<ProseConfig> mixes = enumerateMixes(spec);
    PROSE_ASSERT(!mixes.empty(), "empty configuration space");
    selection.points.resize(mixes.size());

    // Mixes are independent; fan the evaluations (each a full
    // lane-partition sweep) across the shared pool instead of spawning
    // a thread vector per explore() call.
    ThreadPool::global().parallelFor(
        mixes.size(), [&](std::size_t m0, std::size_t m1) {
            for (std::size_t i = m0; i < m1; ++i)
                selection.points[i] = evaluateBestLanes(mixes[i]);
        });

    std::vector<double> runtime, power, area;
    for (const auto &point : selection.points) {
        runtime.push_back(point.runtimeSeconds);
        power.push_back(point.powerWatts);
        area.push_back(point.areaMm2);
    }

    selection.bestPerf = static_cast<std::size_t>(
        std::min_element(runtime.begin(), runtime.end()) -
        runtime.begin());
    selection.powerPareto = paretoFront(runtime, power);
    selection.areaPareto = paretoFront(runtime, area);

    // "Most efficient" = the Pareto point minimizing runtime x power
    // (resp. runtime x area) products — the knee the paper picks.
    auto knee = [&](const std::vector<std::size_t> &front,
                    const std::vector<double> &cost) {
        std::size_t best = front.front();
        double best_product = std::numeric_limits<double>::infinity();
        for (std::size_t idx : front) {
            const double product = runtime[idx] * cost[idx];
            if (product < best_product) {
                best_product = product;
                best = idx;
            }
        }
        return best;
    };
    selection.mostPowerEfficient = knee(selection.powerPareto, power);
    selection.mostAreaEfficient = knee(selection.areaPareto, area);
    return selection;
}

} // namespace prose
