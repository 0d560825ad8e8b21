/**
 * @file
 * fsim_faults: one BERT encoder layer as the Figure 8 dataflow chain
 * (DF1 -> DF3 -> DF1 -> DF2 -> DF1) on the register-accurate
 * FunctionalSimulator in its default engine mode. Steps rotate over
 * three campaigns on the same seeded operands:
 *   (a) seeded accumulator flips, which arm every array;
 *   (b) one stuck bit pinned to an M-type PE (M armed, G/E not);
 *   (c) no campaign: the fast engine.
 * ABFT is on under (a) and (b); it pins the arrays to the stepped
 * engine, so (c) runs without it. The rotation covers the scalar-walk,
 * batched and fast paths.
 */

#include <algorithm>
#include <cmath>
#include <string>

#include "fault/campaign.hh"
#include "fault/fault_injector.hh"
#include "numerics/bfloat16.hh"
#include "numerics/matrix.hh"
#include "systolic/functional_sim.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using namespace prose;

constexpr std::size_t kSeq = 64;
constexpr std::size_t kHidden = 128;
constexpr std::size_t kHeads = 2;
constexpr std::size_t kInter = 256;
constexpr std::size_t kOperandSets = 2;
constexpr std::size_t kCampaigns = 3;
constexpr double kFlipRate = 1e-4;

/** Seeded operands of one encoder layer. */
struct LayerOperands
{
    Matrix x, wQkv, wOut, wUp, wDown, biasUp;
};

void
digestMatrix(Digest &d, const Matrix &m)
{
    d.u64(m.rows());
    d.u64(m.cols());
    d.floats(m.data(), m.size());
}

class FsimFaults final : public Workload
{
  public:
    const char *name() const override { return "fsim_faults"; }
    unsigned lanes() const override { return 1; }
    std::size_t cycleSteps() const override { return kCampaigns; }
    std::size_t deckSize() const override
    {
        return kCampaigns * kOperandSets;
    }
    const char *itemName() const override { return "simulated MAC"; }

    void
    setup(std::uint64_t seed) override
    {
        seed_ = seed;
        operands_.clear();
        Rng rng(seed ^ 0xf517ull);
        auto gaussian = [&rng](std::size_t r, std::size_t c) {
            Matrix m(r, c);
            m.fillGaussian(rng, 0.0f, 1.0f);
            return m;
        };
        for (std::size_t s = 0; s < kOperandSets; ++s) {
            operands_.push_back(LayerOperands{
                gaussian(kSeq, kHidden), gaussian(kHidden, kHidden),
                gaussian(kHidden / kHeads, kHidden),
                gaussian(kHidden, kInter), gaussian(kInter, kHidden),
                gaussian(1, kInter) });
        }
        stuckRow_ = static_cast<std::uint32_t>(rng.below(64));
        stuckCol_ = static_cast<std::uint32_t>(rng.below(64));
    }

    StepResult
    step(std::size_t index, bool traced) override
    {
        const std::size_t local = index % deckSize();
        const std::size_t campaign = local % kCampaigns;
        const LayerOperands &in = operands_[local / kCampaigns];

        std::unique_ptr<FaultInjector> injector;
        const std::string tag = "seed=" + std::to_string(seed_ + local);
        if (campaign == 0) {
            injector = std::make_unique<FaultInjector>(CampaignSpec::parse(
                tag + " acc_flip_rate=" + std::to_string(kFlipRate)));
        } else if (campaign == 1) {
            injector = std::make_unique<FaultInjector>(CampaignSpec::parse(
                tag + " stuck=M0:" + std::to_string(stuckRow_) + ":" +
                std::to_string(stuckCol_) + ":30:0"));
        }

        FunctionalSimulator fsim;
        AbftOptions abft;
        abft.enabled = injector != nullptr;
        fsim.setAbft(abft);
        fsim.setFaultInjector(injector.get());

        std::size_t armed = 0;
        auto arms = [&](const char *site) {
            if (injector && injector->armsAccumulators(site))
                ++armed;
        };
        auto df1 = [&](const Matrix &a, const Matrix &b,
                       const Matrix *addend) {
            arms("M0");
            Span span("systolic.df1");
            Matrix out = fsim.dataflow1(a, b, 1.0f, addend);
            if (traced)
                samples_.time("systolic.df1_ms", span.end());
            return out;
        };

        const std::int64_t t0 = nowNs();
        const Matrix qkv = df1(in.x, in.wQkv, nullptr);
        const std::size_t dk = kHidden / kHeads;
        std::vector<Matrix> q, k, v;
        for (std::size_t h = 0; h < kHeads; ++h) {
            Matrix head(kSeq, dk);
            for (std::size_t i = 0; i < kSeq; ++i)
                std::copy_n(qkv.row(i) + h * dk, dk, head.row(i));
            q.push_back(head);
            k.push_back(head);
            v.push_back(std::move(head));
        }
        std::vector<Matrix> attn;
        {
            arms("E0");
            Span span("systolic.df3");
            attn = fsim.dataflow3(q, k, v, 1.0f / std::sqrt(double(dk)));
            if (traced)
                samples_.time("systolic.df3_ms", span.end());
        }
        const Matrix proj = df1(attn.front(), in.wOut, &in.x);
        Matrix up;
        {
            arms("G0");
            Span span("systolic.df2");
            up = fsim.dataflow2(proj, in.wUp, 1.0f, &in.biasUp);
            if (traced)
                samples_.time("systolic.df2_ms", span.end());
        }
        const Matrix down = df1(up, in.wDown, &proj);
        const double chain_ms = static_cast<double>(nowNs() - t0) / 1e6;

        StepResult res;
        res.items = fsim.macCount();
        const AbftStats &stats = fsim.abftStats();
        std::string log;
        {
            Span span("fault.event_log");
            log = injector ? injector->eventLogText() : std::string();
        }
        const std::size_t events = injector ? injector->events().size() : 0;
        if (traced) {
            samples_.time("systolic.host_ns_per_mac",
                          chain_ms * 1e6 / static_cast<double>(res.items));
            samples_.perStep("systolic.matmul_cycles_per_step",
                             static_cast<double>(fsim.matmulCycles()));
            samples_.perStep("fault.events_per_step",
                             static_cast<double>(events));
            samples_.perStep("fault.abft_flagged_tiles",
                             static_cast<double>(stats.tilesFlagged));
            samples_.perStep("fault.abft_corrected",
                             static_cast<double>(stats.correctedElements));
            samples_.perStep("fault.armed_call_share",
                             static_cast<double>(armed) / 5.0);
        }

        // --- checks --------------------------------------------------
        const std::uint64_t expected_macs =
            kSeq * kHidden * kHidden +
            kHeads * 2 * (kSeq * dk * kSeq) + kSeq * dk * kHidden +
            kSeq * kHidden * kInter + kSeq * kInter * kHidden;
        if (res.items != expected_macs)
            res.failure = "MAC count " + std::to_string(res.items) +
                          " != " + std::to_string(expected_macs);
        if (campaign == 0) {
            setCycles_ = fsim.matmulCycles();
        } else if (fsim.matmulCycles() != setCycles_) {
            res.failure = "campaign changed the matmul cycle count";
        }
        if (campaign == 2) {
            // Fast engine, no faults: DF1 equals the host bf16 chain
            // drain(quantize(truncate(A x B) * quantize(alpha))).
            const Matrix mm = matmulBf16(in.x, in.wQkv);
            for (std::size_t i = 0; i < mm.size(); ++i) {
                const float want =
                    quantizeBf16(truncateBf16(mm.data()[i]) *
                                 quantizeBf16(1.0f));
                if (qkv.data()[i] != want) {
                    res.failure = "fault-free DF1 differs from host bf16";
                    break;
                }
            }
            if (events != 0 || stats.tilesFlagged != 0)
                res.failure = "fault-free run flagged tiles";
        } else if (events == 0) {
            res.failure = "campaign injected nothing";
        }

        Digest d;
        const Matrix *outputs[] = { &qkv, &proj, &up, &down };
        for (const Matrix *m : outputs)
            digestMatrix(d, *m);
        for (const Matrix &m : attn)
            digestMatrix(d, m);
        d.u64(fsim.matmulCycles());
        d.u64(fsim.simdCycles());
        d.u64(fsim.macCount());
        d.text(log);
        d.u64(stats.tilesChecked);
        d.u64(stats.tilesFlagged);
        d.u64(stats.locatedElements);
        d.u64(stats.correctedElements);
        res.digest = d.value();
        return res;
    }

  private:
    std::uint64_t seed_ = 0;
    std::vector<LayerOperands> operands_;
    std::uint32_t stuckRow_ = 0;
    std::uint32_t stuckCol_ = 0;
    std::uint64_t setCycles_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFsimFaults()
{
    return std::make_unique<FsimFaults>();
}

} // namespace perfbench
