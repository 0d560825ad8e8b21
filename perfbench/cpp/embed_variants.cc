/**
 * @file
 * embed_variants: the scientist's path. A seeded directed-evolution
 * library of point variants of a 126-residue parent (the len-128
 * bucket, no padding) runs through tokenize -> BertModel::forward
 * (BERT-base, Bf16Lut, with OpTrace) -> DataflowBuilder::build ->
 * PerfSim::run -> power. A round is four single-candidate steps (b1)
 * and one step embedding all four together (b4); the round's
 * highest-scoring candidate parents the next round.
 *
 * Traced steps run BertModel::forward itself under one span. The
 * per-layer times come from the probe after each round's first (b1)
 * step, outside the step: BertModel::runEncoderLayer over the 12
 * layers, each timed alone, fed from that step's output activations.
 */

#include <algorithm>
#include <cmath>
#include <string>

#include "accel/perf_sim.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "model/bert_model.hh"
#include "model/tokenizer.hh"
#include "power/power_model.hh"
#include "trace/dataflow.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using namespace prose;

constexpr std::size_t kResidues = 126;
constexpr std::size_t kSeqLen = 128;
constexpr std::size_t kCandidates = 4;
constexpr std::size_t kRounds = 4;
constexpr std::uint64_t kModelSeed = 2022;
const char *const kCanonical = "ACDEFGHIKLMNPQRSTVWY";

bool
sameOps(const OpTrace &a, const OpTrace &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Op &x = a.at(i), &y = b.at(i);
        if (x.kind != y.kind || x.sublayer != y.sublayer ||
            x.layer != y.layer || x.batch != y.batch || x.m != y.m ||
            x.k != y.k || x.n != y.n || x.broadcast != y.broadcast)
            return false;
    }
    return true;
}

class EmbedVariants final : public Workload
{
  public:
    const char *name() const override { return "embed_variants"; }
    /** One lane: at two, run-to-run spread triples (README.md). */
    unsigned lanes() const override { return 1; }
    std::size_t cycleSteps() const override { return kCandidates + 1; }
    std::size_t deckSize() const override
    {
        return kRounds * (kCandidates + 1);
    }
    const char *itemName() const override { return "protein"; }

    void
    setup(std::uint64_t seed) override
    {
        seed_ = seed;
        model_.reset();
        {
            Span span("model.construct");
            model_ = std::make_unique<BertModel>(
                BertConfig::proteinBertBase(), kModelSeed);
        }
        Rng rng(seed ^ 0x5eedba5eull);
        base_.clear();
        for (std::size_t i = 0; i < kResidues; ++i)
            base_ += kCanonical[rng.below(20)];
        probe_.assign(model_->config().hidden, 0.0f);
        for (float &p : probe_)
            p = static_cast<float>(rng.gaussian());
        layerMs_.assign(model_->config().layers, {});
    }

    StepResult
    step(std::size_t index, bool traced) override
    {
        const std::size_t local = index % deckSize();
        const std::size_t round = local / cycleSteps();
        const std::size_t pos = local % cycleSteps();
        if (pos == 0)
            startRound(round);

        std::vector<std::string> proteins;
        if (pos < kCandidates)
            proteins.push_back(candidates_[pos]);
        else
            proteins = candidates_;
        const std::size_t batch = proteins.size();

        StepResult res;
        res.items = batch;
        const std::uint64_t dispatch0 = ThreadPool::dispatchCount();

        std::vector<std::vector<std::uint32_t>> tokens;
        {
            Span span("model.tokenize");
            for (const std::string &p : proteins)
                tokens.push_back(tokenizer_.encode(p, kSeqLen));
            if (traced)
                samples_.time("model.tokenize_us", span.end() * 1e3);
        }

        OpTrace trace;
        Matrix hidden;
        {
            Span span("model.forward");
            hidden = model_->forward(tokens, NumericsMode::Bf16Lut, &trace)
                         .hidden;
            const double ms = span.end();
            if (traced) {
                samples_.time(batch == 1 ? "model.forward_ms_b1"
                                         : "model.forward_ms_b4",
                              ms);
                samples_.time("model.forward_gflops",
                              trace.totalFlops() / (ms * 1e6));
            }
        }
        const Matrix features = meanPool(hidden, batch);
        if (traced && pos == 0)
            lastB1Hidden_ = hidden;

        std::vector<DataflowTask> tasks;
        {
            Span span("trace.dataflow_build");
            tasks = DataflowBuilder{}.build(trace);
        }
        const BertShape shape = model_->config().shape(batch, kSeqLen);
        SimReport report;
        {
            Span span("accel.perfsim_run");
            report = PerfSim(accel_).run(shape);
            if (traced)
                samples_.time("accel.perfsim_ms", span.end());
        }
        double watts = 0.0;
        {
            Span span("power.system_power");
            watts = PowerModel{}.systemPowerWatts(
                accel_.groups, accel_.partialInputBuffer, report.cpuDuty);
            if (traced)
                samples_.time("power.eval_us", span.end() * 1e3);
        }
        OpTrace expected;
        {
            Span span("trace.synthesize");
            expected = synthesizeBertTrace(shape);
        }
        if (traced) {
            samples_.perStep("trace.ops_per_step",
                             static_cast<double>(trace.size()));
            samples_.perStep("accel.perfsim_calls_per_step", 1.0);
            samples_.perStep(
                "common.pool_dispatches_per_step",
                static_cast<double>(ThreadPool::dispatchCount() -
                                    dispatch0));
        }

        // --- checks --------------------------------------------------
        for (std::size_t i = 0; i < features.size(); ++i) {
            if (!std::isfinite(features.data()[i])) {
                res.failure = "non-finite feature";
                break;
            }
        }
        if (!sameOps(trace, expected))
            res.failure = "forward op trace differs from "
                          "synthesizeBertTrace at its shape";
        const double accel_share = DataflowBuilder::acceleratedFraction(tasks);
        if (tasks.empty() || !(accel_share > 0.5 && accel_share <= 1.0))
            res.failure = "dataflow build covers too little of the trace";
        if (!(report.makespan > 0.0) || !std::isfinite(report.makespan) ||
            report.inferences != batch || !(watts > 0.0))
            res.failure = "implausible PerfSim/power result";
        const std::size_t h = model_->config().hidden;
        if (pos < kCandidates) {
            candFeatures_[pos].assign(features.row(0), features.row(0) + h);
        } else {
            // Batch invariance: each b4 row equals that candidate's b1
            // embedding bit for bit.
            for (std::size_t c = 0; c < kCandidates; ++c) {
                if (!std::equal(candFeatures_[c].begin(),
                                candFeatures_[c].end(), features.row(c)))
                    res.failure = "b4 features differ from the b1 "
                                  "features of candidate " +
                                  std::to_string(c);
            }
            double best_score = -INFINITY;
            for (std::size_t c = 0; c < kCandidates; ++c) {
                double score = 0.0;
                for (std::size_t j = 0; j < h; ++j)
                    score += static_cast<double>(features(c, j)) *
                             probe_[j];
                if (score > best_score) {
                    best_score = score;
                    nextParent_ = candidates_[c];
                }
            }
        }

        Digest d;
        d.floats(features.data(), features.size());
        d.u64(trace.size());
        d.u64(tasks.size());
        for (const DataflowTask &t : tasks) {
            d.u64(static_cast<std::uint64_t>(t.kind));
            d.f64(t.flops());
        }
        d.f64(report.makespan);
        d.f64(report.cpuDuty);
        d.f64(watts);
        res.digest = d.value();
        return res;
    }

    /** After a round's first (b1) step: every encoder layer, timed alone. */
    void
    probe(std::size_t index) override
    {
        if (index % cycleSteps() != 0)
            return;
        Matrix x = lastB1Hidden_;
        for (std::size_t layer = 0; layer < model_->config().layers;
             ++layer) {
            Span span("model.encoder_layer");
            x = model_->runEncoderLayer(x, layer, 1, kSeqLen,
                                        NumericsMode::Bf16Lut);
            layerMs_[layer].push_back(span.end());
        }
    }

    void
    finish() override
    {
        std::vector<double> per_layer;
        for (const std::vector<double> &ms : layerMs_) {
            if (!ms.empty())
                per_layer.push_back(prose::percentile(ms, 50.0));
        }
        if (per_layer.empty())
            return;
        samples_.set("model.layer_ms_p50", prose::percentile(per_layer, 50.0));
        samples_.set("model.layer_ms_max", prose::maxOf(per_layer));
    }

  private:
    void
    startRound(std::size_t round)
    {
        const std::string parent = round == 0 ? base_ : nextParent_;
        Rng rng(seed_ * 0x9e3779b97f4a7c15ull + round + 1);
        candidates_.clear();
        while (candidates_.size() < kCandidates) {
            std::string variant = parent;
            const std::size_t at = rng.below(kResidues);
            char residue = kCanonical[rng.below(20)];
            if (residue == variant[at])
                continue;
            variant[at] = residue;
            candidates_.push_back(std::move(variant));
        }
    }

    /** BertModel::extractFeatures' mean over (PAD-free) positions. */
    Matrix
    meanPool(const Matrix &hidden, std::size_t batch) const
    {
        const std::size_t h = hidden.cols();
        Matrix features(batch, h);
        for (std::size_t b = 0; b < batch; ++b) {
            for (std::size_t t = 0; t < kSeqLen; ++t)
                for (std::size_t j = 0; j < h; ++j)
                    features(b, j) += hidden(b * kSeqLen + t, j);
            const float inv = 1.0f / static_cast<float>(kSeqLen);
            for (std::size_t j = 0; j < h; ++j)
                features(b, j) *= inv;
        }
        return features;
    }

    std::uint64_t seed_ = 0;
    std::unique_ptr<BertModel> model_;
    AminoTokenizer tokenizer_;
    ProseConfig accel_ = ProseConfig::bestPerf();
    std::string base_;
    std::vector<float> probe_;
    std::vector<std::string> candidates_;
    std::vector<float> candFeatures_[kCandidates];
    std::string nextParent_; ///< best candidate of the last round
    Matrix lastB1Hidden_; ///< output of the last round's first step
    std::vector<std::vector<double>> layerMs_;
};

} // namespace

std::unique_ptr<Workload>
makeEmbedVariants()
{
    return std::make_unique<EmbedVariants>();
}

} // namespace perfbench
