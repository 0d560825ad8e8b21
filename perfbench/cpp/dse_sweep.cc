/**
 * @file
 * dse_sweep: the architect's path. Each step is one DseEngine::explore
 * over Table 3's array-count bounds at an 8K-PE budget (24 mixes, 240
 * evaluations) at NVLink2@90% for one operating point, then
 * DseEngine::validate on the step's BestPerf and MostPowerEfficient
 * picks. The paper point (len 512, b128) always comes first; the seed
 * draws the order of the rest, the seven points of the paper's Section
 * 2.3 length sweep. A cycle is the whole deck, so every seed times the
 * same eight sweeps.
 *
 * Traced steps run explore() itself under one span. The per-evaluation
 * metrics come from the probe, which times DseEngine::evaluate,
 * PerfSim::run and the power model on the picks' lane partitions, and
 * trace synthesis at the step's shape, outside the step.
 */

#include <cmath>
#include <iterator>
#include <numeric>

#include "accel/perf_sim.hh"
#include "common/stats.hh"
#include "dse/config_space.hh"
#include "dse/dse_engine.hh"
#include "power/power_model.hh"
#include "trace/dataflow.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using namespace prose;

/** One length/batch point of the paper's profiling sweep. */
struct LengthPoint
{
    std::uint64_t seqLen;
    std::uint64_t batch;
};

/** Section 2.3's batch sizes per input length (the fig01/fig03 sweep). */
const LengthPoint kPaperLengthSweep[] = {
    { 32, 24576 }, { 64, 12288 }, { 128, 6144 }, { 256, 2048 },
    { 512, 512 },  { 1024, 128 }, { 2048, 64 },
};
constexpr LengthPoint kPaperPoint{ 512, 128 };
constexpr std::size_t kDeck = 1 + std::size(kPaperLengthSweep);
/**
 * Half the Table 3 budget. An explore of the 16K space takes about 3.4 s
 * at one lane, so a whole deck (27 s) would not fit in a run; here it
 * takes about 6 s (README.md).
 */
constexpr std::uint64_t kPeBudget = 8192;

void
digestPoint(Digest &d, const DsePoint &p)
{
    d.text(p.config.describe());
    d.text(p.config.lanes.describe());
    d.f64(p.runtimeSeconds);
    d.f64(p.runtimeVsA100);
    d.f64(p.powerWatts);
    d.f64(p.areaMm2);
    d.f64(p.inferencesPerSecond);
    d.f64(p.cpuDuty);
}

class DseSweep final : public Workload
{
  public:
    const char *name() const override { return "dse_sweep"; }
    unsigned lanes() const override { return 1; }
    std::size_t cycleSteps() const override { return kDeck; }
    std::size_t deckSize() const override { return kDeck; }
    const char *itemName() const override
    {
        return "configuration evaluated";
    }
    /** An entry's inputs are its operating point; the seed only orders
     *  the deck, so digests are committed per point for every seed. */
    bool seedFree(std::size_t) const override { return true; }
    std::size_t goldenIndex(std::size_t local) const override
    {
        return order_.at(local);
    }

    void
    setup(std::uint64_t seed) override
    {
        {
            Span span("dse.enumerate_mixes");
            mixes_ = enumerateMixes(spec_);
        }
        evaluations_ = 0;
        for (const ProseConfig &mix : mixes_)
            evaluations_ += LanePartition::enumerate(mix.link.lanes).size();
        // Deck entry 0 is the paper point (index 0); the sweep points
        // (indices 1..7) follow in seeded order.
        std::vector<std::size_t> sweep(kDeck - 1);
        std::iota(sweep.begin(), sweep.end(), 1);
        Rng rng(seed ^ 0xd5e5eedull);
        rng.shuffle(sweep);
        order_.assign(1, 0);
        order_.insert(order_.end(), sweep.begin(), sweep.end());
        points_.clear();
        for (const std::size_t k : order_)
            points_.push_back(k == 0 ? kPaperPoint : kPaperLengthSweep[k - 1]);
    }

    StepResult
    step(std::size_t index, bool traced) override
    {
        const LengthPoint op = points_[index % kDeck];
        DseWorkload workload;
        workload.shape = BertShape{ 12, 768, 12, 3072, op.batch, op.seqLen };

        StepResult res;
        res.items = evaluations_;
        {
            Span span("baseline.a100");
            engine_ = std::make_unique<DseEngine>(workload);
            if (traced)
                samples_.time("baseline.a100_ms", span.end());
        }
        DseSelection sel;
        {
            Span span("dse.explore");
            sel = engine_->explore(spec_);
        }
        if (traced) {
            // explore() evaluates every (mix, lane partition) once; the
            // re-evaluation check below is one more PerfSim::run.
            samples_.perStep("dse.evals_per_step",
                             static_cast<double>(evaluations_));
            samples_.perStep("accel.perfsim_calls_per_step",
                             static_cast<double>(evaluations_ + 1));
            samples_.perStep("dse.useful_eval_ratio",
                             static_cast<double>(mixes_.size()) /
                                 static_cast<double>(evaluations_));
        }

        const DsePoint &fast = sel.points.at(sel.bestPerf);
        const DsePoint &lean = sel.points.at(sel.mostPowerEfficient);
        DseValidationReport checks[2];
        for (int i = 0; i < 2; ++i) {
            Span span("systolic.validate");
            checks[i] = engine_->validate(i == 0 ? fast.config : lean.config);
            if (traced)
                samples_.time("systolic.validate_ms", span.end());
        }

        // --- checks --------------------------------------------------
        if (sel.points.size() != mixes_.size())
            res.failure = "explore returned " +
                          std::to_string(sel.points.size()) + " points for " +
                          std::to_string(mixes_.size()) + " mixes";
        for (const DsePoint &p : sel.points) {
            if (!(p.runtimeSeconds > 0.0) || !std::isfinite(p.runtimeSeconds) ||
                p.runtimeSeconds < fast.runtimeSeconds)
                res.failure = "BestPerf is not the fastest point";
        }
        if (!checks[0].ok || !checks[1].ok)
            res.failure = "DseEngine::validate failed on a pick";
        {
            // Re-evaluating the pick alone must reproduce the sweep.
            Span span("dse.evaluate");
            const DsePoint again = engine_->evaluate(fast.config);
            if (again.runtimeSeconds != fast.runtimeSeconds)
                res.failure = "re-evaluated BestPerf runtime differs";
        }

        Digest d;
        for (const DsePoint &p : sel.points)
            digestPoint(d, p);
        d.u64(sel.bestPerf);
        d.u64(sel.mostPowerEfficient);
        d.u64(sel.mostAreaEfficient);
        for (const std::size_t i : sel.powerPareto)
            d.u64(i);
        for (const std::size_t i : sel.areaPareto)
            d.u64(i);
        d.f64(engine_->a100Seconds());
        for (const DseValidationReport &v : checks) {
            d.u64(v.fsimMatmulCycles);
            d.u64(v.macCount);
        }
        res.digest = d.value();
        picks_[0] = fast.config;
        picks_[1] = lean.config;
        return res;
    }

    /**
     * The parts of explore(), timed one by one: DseEngine::evaluate, and
     * the PerfSim::run and power-model calls it makes, over every lane
     * partition of the step's two picks; then trace synthesis and
     * dataflow build at the step's shape.
     */
    void
    probe(std::size_t) override
    {
        const BertShape &shape = engine_->workload().shape;
        const PowerModel power;
        for (const ProseConfig &mix : picks_) {
            for (const LanePartition &lanes :
                 LanePartition::enumerate(mix.link.lanes)) {
                ProseConfig candidate = mix;
                candidate.lanes = lanes;
                {
                    Span span("dse.evaluate");
                    engine_->evaluate(candidate);
                    samples_.time("dse.evaluate_ms", span.end());
                }
                {
                    Span span("accel.perfsim_run");
                    PerfSim(candidate).run(shape);
                    perfsimMs_.push_back(span.end());
                }
                {
                    Span span("power.array_model");
                    power.arrayPowerWatts(candidate.groups,
                                          candidate.partialInputBuffer);
                    power.arrayAreaMm2(candidate.groups,
                                       candidate.partialInputBuffer);
                    samples_.time("power.eval_us", span.end() * 1e3);
                }
            }
        }
        Span span("trace.synthesize");
        DataflowBuilder{}.build(synthesizeBertTrace(shape));
        synthMs_.push_back(span.end());
    }

    void
    finish() override
    {
        if (synthMs_.empty() || perfsimMs_.empty())
            return;
        const double synth = prose::percentile(synthMs_, 50.0);
        const double perfsim = prose::percentile(perfsimMs_, 50.0);
        samples_.set("trace.synth_ms", synth);
        samples_.set("accel.perfsim_ms", perfsim);
        samples_.set("accel.trace_share", synth / perfsim);
    }

  private:
    /** Table 3's count bounds at kPeBudget PEs, NVLink2 @ 90%. */
    ConfigSpaceSpec spec_ = [] {
        ConfigSpaceSpec spec;
        spec.peBudget = kPeBudget;
        return spec;
    }();
    std::vector<ProseConfig> mixes_;
    std::uint64_t evaluations_ = 0;
    std::vector<std::size_t> order_; ///< deck entry -> 0 paper, k sweep k-1
    std::vector<LengthPoint> points_;
    std::unique_ptr<DseEngine> engine_; ///< the last step's engine
    ProseConfig picks_[2];               ///< its BestPerf, MostPowerEfficient
    std::vector<double> synthMs_;
    std::vector<double> perfsimMs_;
};

} // namespace

std::unique_ptr<Workload>
makeDseSweep()
{
    return std::make_unique<DseSweep>();
}

} // namespace perfbench
