/**
 * @file
 * fleet_chaos: drills on a 4-instance BestPerf fleet serving BERT-base.
 * Each step is one drill: ServeSim::run over a seeded open-loop arrival
 * stream in virtual time (Poisson and bursty streams alternate; 60-500
 * residues into the 128/256/512 buckets; 0.7x modelled capacity), then
 * one closed ProseSystem::run batch (len 512, b128). Even steps are
 * healthy; odd steps replay the previous stream under a kill_instance
 * campaign on both fleet models.
 *
 * Healthy drills are checked against committed digests. Chaos drills
 * are checked by invariants (conservation, nothing lost, the kill
 * happened) and by within-run replay, because the fleet models are
 * expected to change their chaos results.
 */

#include <cmath>
#include <string>

#include "accel/system.hh"
#include "fault/campaign.hh"
#include "fault/fault_injector.hh"
#include "serve/service_model.hh"
#include "serve/serve_sim.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using namespace prose;

constexpr std::size_t kStreams = 4;
constexpr std::uint64_t kRequests = 400;
constexpr std::uint64_t kMinResidues = 60;
constexpr std::uint64_t kMaxResidues = 500;
constexpr double kLoad = 0.7;
constexpr std::uint32_t kVictim = 1;

class FleetChaos final : public Workload
{
  public:
    const char *name() const override { return "fleet_chaos"; }
    unsigned lanes() const override { return 1; }
    std::size_t cycleSteps() const override { return 2; }
    std::size_t deckSize() const override { return 2 * kStreams; }
    const char *itemName() const override
    {
        return "simulated request or inference";
    }

    void
    setup(std::uint64_t seed) override
    {
        seed_ = seed;
        base_ = ServeSpec{};
        base_.model = BertShape{ 12, 768, 12, 3072, 1, 128 };
        base_.batcher.buckets = { 128, 256, 512 };
        base_.instanceCount = 4;
        base_.instance = ProseConfig::bestPerf();
        base_.arrivals.count = kRequests;
        base_.arrivals.minResidues = kMinResidues;
        base_.arrivals.maxResidues = kMaxResidues;
        {
            // Offered rate = 0.7x the fleet's modelled capacity for the
            // stream's bucket mix (residues uniform, +2 for CLS/SEP).
            Span span("serve.service_model");
            const ServiceModel model(base_.instance, base_.model,
                                     base_.dispatchOverheadSeconds);
            const double span_len =
                static_cast<double>(kMaxResidues - kMinResidues + 1);
            double seconds_per_request = 0.0;
            std::uint64_t lo = kMinResidues;
            for (const std::uint64_t bucket : base_.batcher.buckets) {
                const std::uint64_t hi = std::min(bucket - 2, kMaxResidues);
                if (hi < lo)
                    continue;
                const double share =
                    static_cast<double>(hi - lo + 1) / span_len;
                seconds_per_request +=
                    share / model.capacityPerSecond(
                                bucket, base_.batcher.maxBatch,
                                base_.instanceCount);
                lo = hi + 1;
            }
            base_.arrivals.ratePerSecond = kLoad / seconds_per_request;
            base_.sloSeconds = 8.0 * model.seconds(base_.batcher.buckets.back(),
                                                   base_.batcher.maxBatch);
            samples_.set("serve.service_model_ms", span.end());
        }
        {
            // The closed batch loses an instance halfway through.
            Span span("accel.system_run");
            const SystemReport healthy = ProseSystem(system_).run(batchShape_);
            killAtSeconds_ = 0.5 * healthy.makespan;
        }
    }

    StepResult
    step(std::size_t index, bool traced) override
    {
        const std::size_t local = index % deckSize();
        const bool chaos = local % 2 == 1;
        const std::size_t stream = local / 2;

        ServeSpec spec = base_;
        spec.arrivals.kind =
            stream % 2 == 0 ? ArrivalKind::Poisson : ArrivalKind::Bursty;
        spec.arrivals.seed = seed_ * 1000003ull + stream + 1;

        StepResult res;
        res.goldenComparable = !chaos;
        ServeReport served;
        {
            Span span("serve.run");
            const ServeSim sim(spec);
            if (chaos) {
                FaultInjector injector(CampaignSpec::parse(
                    "seed=" + std::to_string(spec.arrivals.seed) +
                    " kill_instance=" + std::to_string(kVictim) + "@#" +
                    std::to_string(kRequests / 2)));
                served = sim.run(&injector);
            } else {
                served = sim.run();
            }
            const double ms = span.end();
            if (traced) {
                samples_.time(chaos ? "serve.run_ms_chaos"
                                    : "serve.run_ms_healthy",
                              ms);
                samples_.time("serve.host_ns_per_request",
                              ms * 1e6 / static_cast<double>(served.offered));
            }
        }
        SystemReport batch;
        {
            Span span("accel.system_run");
            if (chaos) {
                FaultInjector injector(CampaignSpec::parse(
                    "seed=" + std::to_string(spec.arrivals.seed) +
                    " kill_instance=" + std::to_string(kVictim) + "@" +
                    std::to_string(killAtSeconds_)));
                batch = ProseSystem(system_).run(batchShape_, &injector);
            } else {
                batch = ProseSystem(system_).run(batchShape_);
            }
            if (traced)
                samples_.time("accel.system_run_ms", span.end());
        }
        if (traced) {
            samples_.perStep("serve.done_ratio",
                             static_cast<double>(served.done) /
                                 static_cast<double>(served.offered));
            samples_.perStep("serve.retries_per_step",
                             static_cast<double>(served.retries));
            if (chaos)
                samples_.perStep(
                    "accel.resharded_inferences",
                    static_cast<double>(batch.reshardedInferences));
        }
        res.items = served.offered + batch.inferences;

        // --- checks --------------------------------------------------
        if (served.offered != kRequests ||
            served.offered != served.done + served.timedOut + served.shed ||
            served.lost() != 0)
            res.failure = "serve conservation violated";
        if (served.done == 0)
            res.failure = "serve completed nothing";
        if (batch.inferences != batchShape_.batch ||
            !(batch.makespan > 0.0) || !std::isfinite(batch.makespan))
            res.failure = "system batch lost inferences";
        if (chaos && (served.instancesKilled != 1 ||
                      batch.failedInstances != 1))
            res.failure = "chaos drill did not kill the instance";
        if (!chaos && (served.instancesKilled != 0 ||
                       batch.failedInstances != 0 || served.retries != 0))
            res.failure = "healthy drill saw a failure";

        Digest d;
        d.text(served.describe());
        for (const double l : served.latencies)
            d.f64(l);
        d.f64(batch.makespan);
        d.u64(batch.inferences);
        d.f64(batch.systemWatts);
        d.f64(batch.hostDuty);
        d.u64(batch.reshardedInferences);
        for (const SimReport &r : batch.perInstance)
            d.f64(r.makespan);
        for (const double t : batch.completionSeconds)
            d.f64(t);
        res.digest = d.value();
        return res;
    }

  private:
    std::uint64_t seed_ = 0;
    ServeSpec base_;
    SystemConfig system_; ///< 4x BestPerf on dedicated links
    BertShape batchShape_{ 12, 768, 12, 3072, 128, 512 };
    double killAtSeconds_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeFleetChaos()
{
    return std::make_unique<FleetChaos>();
}

} // namespace perfbench
