/**
 * @file
 * Perf-regression harness for the shared compute backend (docs/PERF.md).
 *
 * Times the raw matmul kernel family (fp32 serial vs pooled, bf16
 * per-call quantization vs cached weights), one BERT-base encoder layer
 * in Bf16Lut numerics, and the end-to-end
 * tokenizer -> BERT forward -> trace -> PerfSim chain across
 * representative shapes (len 128/512, batch 1/8), the PerfSim scheduler
 * alone and inside a DSE sweep, then emits
 * BENCH_perf.json with median / p10 / p90 milliseconds per bench so
 * successive PRs accumulate a perf trajectory.
 *
 * Usage: perf_regression [--quick] [--repeats N] [--out PATH]
 *   --quick    small shapes, few repeats (the CI smoke configuration)
 *   --repeats  maximum repeats per bench (default 8). Sampling is
 *              time-budgeted: every bench runs one untimed warmup
 *              iteration, then gets at least five samples (so medians
 *              and p10/p90 are never a near-single measurement), and
 *              fast benches keep sampling up to the maximum until the
 *              per-bench wall-clock budget is spent.
 *   --out      output JSON path (default BENCH_perf.json in the CWD)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "accel/perf_sim.hh"
#include "accel/prose_config.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "dse/config_space.hh"
#include "dse/dse_engine.hh"
#include "model/bert_model.hh"
#include "model/tokenizer.hh"
#include "numerics/matrix.hh"
#include "serve/serve_sim.hh"
#include "serve/service_model.hh"
#include "systolic/functional_sim.hh"
#include "trace/dataflow.hh"

using namespace prose;

namespace {

struct BenchResult
{
    std::string name;
    double medianMs = 0.0;
    double p10Ms = 0.0;
    double p90Ms = 0.0;
    std::size_t repeats = 0;
};

/** Floor on samples per bench: percentiles from fewer are noise. */
constexpr std::size_t kMinRepeats = 5;
/** Per-bench sampling budget; slow benches stop at the floor. */
constexpr double kBenchBudgetMs = 2500.0;

/**
 * Time-budgeted sampling: one untimed warmup call (first-touch page
 * faults, pool spin-up, and cold caches land there instead of in the
 * first sample — the warmup-less sampler recorded p90s dominated by
 * that first iteration), then run fn until the sample floor
 * (kMinRepeats) is met, then keep sampling until either `max_repeats`
 * samples exist or the wall-clock budget is spent. Replaces the old
 * fixed "big shapes run once" reductions, which recorded repeats: 1
 * entries whose medians were single unstable measurements.
 */
template <typename Fn>
BenchResult
timeBench(const std::string &name, std::size_t max_repeats, Fn &&fn)
{
    std::vector<double> samples;
    samples.reserve(std::max(max_repeats, kMinRepeats));
    fn(); // warmup, never recorded
    double total_ms = 0.0;
    while (samples.size() < kMinRepeats ||
           (samples.size() < max_repeats && total_ms < kBenchBudgetMs)) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const auto stop = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start)
                .count();
        samples.push_back(ms);
        total_ms += ms;
    }
    BenchResult result;
    result.name = name;
    result.medianMs = percentile(samples, 50.0);
    result.p10Ms = percentile(samples, 10.0);
    result.p90Ms = percentile(samples, 90.0);
    result.repeats = samples.size();
    return result;
}

Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix m(rows, cols);
    m.fillGaussian(rng, 0.0f, 1.0f);
    return m;
}

std::string
randomProtein(Rng &rng, std::size_t residues)
{
    static const char kAlphabet[] = "ACDEFGHIKLMNPQRSTVWY";
    std::string seq;
    seq.reserve(residues);
    for (std::size_t i = 0; i < residues; ++i)
        seq.push_back(kAlphabet[rng.below(20)]);
    return seq;
}

/** The full tokenizer -> forward -> trace -> PerfSim chain, once. */
double
endToEndChain(const BertModel &model, const AminoTokenizer &tokenizer,
              const std::string &protein, std::uint64_t batch,
              std::uint64_t seq_len)
{
    const auto ids = tokenizer.encode(protein, seq_len);
    const std::vector<std::vector<std::uint32_t>> tokens(batch, ids);
    OpTrace trace;
    const BertModel::Output out =
        model.forward(tokens, NumericsMode::Bf16Lut, &trace);
    const auto tasks = DataflowBuilder{}.build(trace);
    const SimReport report = PerfSim(ProseConfig::bestPerf())
                                 .run(model.config().shape(batch, seq_len));
    // Fold results together so nothing is optimized away.
    return out.pooled(0, 0) + static_cast<double>(tasks.size()) +
           report.makespan;
}

/** Pre-generated operands of one BERT encoder layer (see below). */
struct LayerInputs
{
    std::size_t seq, hidden, heads, inter, batch;
    Matrix x, wQkv, wOut, wUp, wDown, biasUp;

    LayerInputs(Rng &rng, std::size_t seq_, std::size_t hidden_,
                std::size_t heads_, std::size_t inter_, std::size_t batch_)
        : seq(seq_), hidden(hidden_), heads(heads_), inter(inter_),
          batch(batch_), x(randomMatrix(rng, seq, hidden)),
          wQkv(randomMatrix(rng, hidden, hidden)),
          wOut(randomMatrix(rng, hidden / heads, hidden)),
          wUp(randomMatrix(rng, hidden, inter)),
          wDown(randomMatrix(rng, inter, hidden)),
          biasUp(randomMatrix(rng, 1, inter))
    {
    }
};

/**
 * One BERT encoder layer on the register-accurate functional simulator
 * following the Figure 8 dataflow chain (1 -> 3 -> 1 -> 2 -> 1): QKV
 * projection, batched attention with the host softmax trip, attention
 * output projection, the GELU-fused FFN expansion, and the FFN
 * contraction. Exercises all three arrays in the given engine mode.
 * Operand generation is hoisted into LayerInputs so the measurement is
 * dominated by the simulator engines, not the host RNG.
 */
double
fsimBertLayer(FsimMode mode, const LayerInputs &in)
{
    FunctionalSimulator fsim;
    fsim.setMode(mode);
    const std::size_t dk = in.hidden / in.heads;

    const Matrix qkv = fsim.dataflow1(in.x, in.wQkv, 1.0f, nullptr);

    std::vector<Matrix> q, k, v;
    for (std::size_t b = 0; b < in.batch * in.heads; ++b) {
        Matrix head(in.seq, dk);
        const std::size_t col0 = (b * dk) % in.hidden;
        for (std::size_t i = 0; i < in.seq; ++i)
            std::copy_n(qkv.row(i) + col0, dk, head.row(i));
        q.push_back(head);
        k.push_back(head);
        v.push_back(std::move(head));
    }
    const std::vector<Matrix> attn =
        fsim.dataflow3(q, k, v, 1.0f / std::sqrt(double(dk)));

    const Matrix proj = fsim.dataflow1(attn.front(), in.wOut, 1.0f, &in.x);
    const Matrix up = fsim.dataflow2(proj, in.wUp, 1.0f, &in.biasUp);
    const Matrix down = fsim.dataflow1(up, in.wDown, 1.0f, &proj);
    return down(0, 0) + static_cast<double>(fsim.matmulCycles());
}

std::string
jsonEscapeless(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::size_t repeats = 8;
    std::string out_path = "BENCH_perf.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--repeats" && i + 1 < argc) {
            std::uint64_t parsed = 0;
            if (!parseU64(argv[++i], parsed) || parsed == 0)
                fatal("--repeats needs a positive count, got \"",
                      argv[i], "\"");
            repeats = static_cast<std::size_t>(parsed);
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            fatal("unknown argument \"", arg,
                  "\"; usage: perf_regression [--quick] [--repeats N]"
                  " [--out PATH]");
        }
    }
    if (quick)
        repeats = std::min(repeats, kMinRepeats);

    const unsigned threads = ThreadPool::global().parallelism();
    std::cout << "perf_regression: " << threads << " pool lane(s), "
              << repeats << " repeat(s)" << (quick ? ", quick mode" : "")
              << "\n\n";

    Rng rng(20260806);
    std::vector<BenchResult> results;
    double fsim_layer_speedup = 0.0;

    // --- Raw kernels: fp32 serial vs pooled ---------------------------
    struct GemmShape
    {
        std::uint64_t seqLen, batch;
    };
    std::vector<GemmShape> gemm_shapes = { { 128, 1 } };
    if (!quick)
        gemm_shapes = { { 128, 1 }, { 128, 8 }, { 512, 1 }, { 512, 8 } };
    constexpr std::size_t kWidth = 768; // BERT-base H

    for (const GemmShape &shape : gemm_shapes) {
        const std::size_t m = shape.seqLen * shape.batch;
        const Matrix a = randomMatrix(rng, m, kWidth);
        const Matrix b = randomMatrix(rng, kWidth, kWidth);
        const std::string tag = "len" + std::to_string(shape.seqLen) +
                                "_b" + std::to_string(shape.batch);
        results.push_back(timeBench(
            "matmul_fp32_serial_" + tag, repeats, [&] {
                ThreadPool::SerialGuard serial;
                volatile float sink = matmul(a, b)(0, 0);
                (void)sink;
            }));
        results.push_back(
            timeBench("matmul_fp32_pooled_" + tag, repeats, [&] {
                volatile float sink = matmul(a, b)(0, 0);
                (void)sink;
            }));
    }

    // --- Pool crossover: where dispatch starts to pay -----------------
    {
        // matmul() keeps shapes below kMinMacsPerLane MACs per lane
        // inline (the recorded len128_b1 pooled loss is what pushed the
        // floor to 2^25 — see shouldPool() in numerics/matrix.cc);
        // these n^3 cubes straddle that threshold so the recorded
        // serial-vs-pooled medians document the crossover. A fixed
        // 4-lane override pool keeps the per-lane floor — and so the
        // set of shapes that actually dispatch — independent of the
        // host core count. On four lanes the boundary sits at exactly
        // n = 512 (512^3 == 4 * 2^25); n640 is the first comfortably
        // dispatching cube.
        std::vector<std::size_t> cutoff_ns = { 96, 128 };
        if (!quick) {
            cutoff_ns.push_back(192);
            cutoff_ns.push_back(256);
            cutoff_ns.push_back(384);
            cutoff_ns.push_back(512);
            cutoff_ns.push_back(640);
        }
        ThreadPool cutoff_pool(4);
        for (const std::size_t n : cutoff_ns) {
            const Matrix a = randomMatrix(rng, n, n);
            const Matrix b = randomMatrix(rng, n, n);
            const std::string tag = "_n" + std::to_string(n);
            results.push_back(
                timeBench("matmul_cutoff_serial" + tag, repeats, [&] {
                    ThreadPool::SerialGuard serial;
                    volatile float sink = matmul(a, b)(0, 0);
                    (void)sink;
                }));
            ThreadPool::setGlobalOverride(&cutoff_pool);
            results.push_back(
                timeBench("matmul_cutoff_pooled" + tag, repeats, [&] {
                    volatile float sink = matmul(a, b)(0, 0);
                    (void)sink;
                }));
            ThreadPool::setGlobalOverride(nullptr);
        }
    }

    // --- bf16 path: per-call quantization vs cached weights -----------
    // Shape-qualified names; the full run is a superset of the quick
    // run so quick CI medians always find a like-for-like baseline.
    std::vector<std::size_t> bf16_ms = { 128 };
    if (!quick)
        bf16_ms.push_back(512);
    for (const std::size_t m : bf16_ms) {
        const Matrix a = randomMatrix(rng, m, kWidth);
        const Matrix w = randomMatrix(rng, kWidth, kWidth);
        const QuantizedOperand cached(w);
        const std::string tag = "_m" + std::to_string(m);
        results.push_back(
            timeBench("matmulBf16_percall_quant" + tag, repeats, [&] {
                volatile float sink = matmulBf16(a, w)(0, 0);
                (void)sink;
            }));
        results.push_back(
            timeBench("matmulBf16_cached_weights" + tag, repeats, [&] {
                volatile float sink = matmulBf16(a, cached)(0, 0);
                (void)sink;
            }));
    }

    // --- One BERT-base encoder layer, Bf16Lut, len 128 b1 -------------
    {
        // The host embedding path's unit of work: every GEMM shape of
        // the real model (768-wide projections, 3072-wide FFN) through
        // the cached-weight bf16 tile kernel, plus the attention and
        // epilogue code around it. Serial, as the embedding workloads
        // run it. Same shape in quick and full runs.
        BertConfig base = BertConfig::proteinBertBase();
        base.layers = 1;
        base.maxSeqLen = 128;
        const BertModel layer_model(base, /*seed=*/7);
        Matrix x = randomMatrix(rng, 128, base.hidden);
        x.quantizeBf16InPlace();
        results.push_back(timeBench(
            "bert_base_layer_bf16lut_len128_b1", repeats, [&] {
                ThreadPool::SerialGuard serial;
                volatile float sink =
                    layer_model
                        .runEncoderLayer(x, 0, 1, 128,
                                         NumericsMode::Bf16Lut)(0, 0);
                (void)sink;
            }));
    }

    // --- End-to-end: tokenizer -> forward -> trace -> PerfSim ---------
    BertConfig config;
    config.layers = 2;
    config.hidden = 256;
    config.heads = 8;
    config.intermediate = 1024;
    config.maxSeqLen = 512;
    const BertModel model(config, /*seed=*/7);
    const AminoTokenizer tokenizer;

    std::vector<GemmShape> e2e_shapes = { { 128, 1 } };
    if (!quick)
        e2e_shapes = { { 128, 1 }, { 128, 8 }, { 512, 1 } };
    for (const GemmShape &shape : e2e_shapes) {
        const std::string protein = randomProtein(rng, shape.seqLen - 2);
        const std::string tag = "len" + std::to_string(shape.seqLen) +
                                "_b" + std::to_string(shape.batch);
        results.push_back(
            timeBench("forward_chain_serial_" + tag, repeats, [&] {
                ThreadPool::SerialGuard serial;
                volatile double sink = endToEndChain(
                    model, tokenizer, protein, shape.batch, shape.seqLen);
                (void)sink;
            }));
        results.push_back(
            timeBench("forward_chain_pooled_" + tag, repeats, [&] {
                volatile double sink = endToEndChain(
                    model, tokenizer, protein, shape.batch, shape.seqLen);
                (void)sink;
            }));
    }

    // --- Functional simulator: one BERT layer, fast vs stepped --------
    {
        // The small layer keeps the stepped engine inside the CI smoke
        // budget; the full run adds a BERT-base layer (H=768, FFN=3072)
        // whose reduction depths amortize the wavefront overhead both
        // engines pay per tile — the recorded speedup comes from it.
        struct LayerShape
        {
            std::size_t seq, hidden, heads, inter, batch;
        };
        std::vector<LayerShape> layers = { { 64, 64, 4, 128, 2 } };
        if (!quick)
            layers.push_back({ 128, 768, 12, 3072, 1 });
        for (const LayerShape &shape : layers) {
            const LayerInputs layer(rng, shape.seq, shape.hidden,
                                    shape.heads, shape.inter, shape.batch);
            const std::string tag = "_s" + std::to_string(shape.seq) +
                                    "_h" + std::to_string(shape.hidden);
            results.push_back(
                timeBench("fsim_bert_layer_fast" + tag, repeats, [&] {
                    volatile double sink =
                        fsimBertLayer(FsimMode::Fast, layer);
                    (void)sink;
                }));
            results.push_back(
                timeBench("fsim_bert_layer_stepped" + tag, repeats, [&] {
                    volatile double sink =
                        fsimBertLayer(FsimMode::Stepped, layer);
                    (void)sink;
                }));
            const double fast_ms = results[results.size() - 2].medianMs;
            const double stepped_ms = results.back().medianMs;
            fsim_layer_speedup = stepped_ms / fast_ms;
            std::cout << "fsim fast-forward speedup (one BERT layer, "
                      << "DF1+3+1+2+1, s=" << shape.seq
                      << " h=" << shape.hidden
                      << "): " << Table::fmt(fsim_layer_speedup, 1)
                      << "x\n\n";
        }
    }

    // --- Link layer: streaming, compression, contention ---------------
    {
        // The streaming/contention scheduler added to the PerfSim link
        // layer runs inside every sweep and every serve drill, so its
        // host cost is gated here: one PerfSim pass per streaming mode
        // (identical task streams, only the link math differs — the
        // three medians should sit on top of each other), plus a
        // two-tenant shared-link pass whose scheduler does strictly
        // more bookkeeping per dispatch.
        const BertShape link_shape{ 12, 768, 12, 3072,
                                    quick ? 1ull : 4ull, 512 };
        auto link_config = [](StreamMode mode) {
            ProseConfig prose = ProseConfig::bestPerf();
            prose.link = LinkSpec::nvlink2At80();
            prose.streaming.mode = mode;
            return prose;
        };
        const struct
        {
            const char *name;
            StreamMode mode;
        } stream_benches[] = {
            { "link_stream_serialized", StreamMode::Serialized },
            { "link_stream_double_buffered", StreamMode::DoubleBuffered },
            { "link_stream_ideal", StreamMode::Ideal },
        };
        for (const auto &bench : stream_benches) {
            const ProseConfig prose = link_config(bench.mode);
            results.push_back(timeBench(bench.name, repeats, [&] {
                volatile double sink =
                    PerfSim(prose).run(link_shape).makespan;
                (void)sink;
            }));
        }
        {
            ProseConfig prose = link_config(StreamMode::DoubleBuffered);
            prose.link.compression = LinkCompression::ZeroRun;
            results.push_back(
                timeBench("link_compress_zero_run", repeats, [&] {
                    volatile double sink =
                        PerfSim(prose).run(link_shape).makespan;
                    (void)sink;
                }));
        }
        {
            const ProseConfig prose =
                link_config(StreamMode::DoubleBuffered);
            const std::vector<BertShape> tenants(2, link_shape);
            results.push_back(
                timeBench("link_contention_2tenant", repeats, [&] {
                    volatile double sink =
                        PerfSim(prose).runShared(tenants).makespan;
                    (void)sink;
                }));
        }
    }

    // --- PerfSim scheduler: one run and one DSE sweep -----------------
    {
        // The DSE sweep runs PerfSim once per (mix, lane partition), so
        // the scheduler's per-dispatch cost is its inner loop: one run
        // at the paper point (len 512, b128, 32 threads), then a serial
        // explore of Table 3's count bounds at 8K PEs (24 mixes x 10
        // lane partitions). Same shapes in quick and full runs.
        const BertShape paper_point{ 12, 768, 12, 3072, 128, 512 };
        const PerfSim sim(ProseConfig::bestPerf());
        results.push_back(
            timeBench("perfsim_run_len512_b128", repeats, [&] {
                volatile double sink = sim.run(paper_point).makespan;
                (void)sink;
            }));
        DseWorkload workload;
        workload.shape = paper_point;
        const DseEngine engine(workload);
        ConfigSpaceSpec space;
        space.peBudget = 8192;
        results.push_back(
            timeBench("dse_explore_8k_len512", repeats, [&] {
                ThreadPool::SerialGuard serial;
                volatile std::size_t sink =
                    engine.explore(space).bestPerf;
                (void)sink;
            }));
    }

    // --- Serving front end: healthy vs chaos drill --------------------
    {
        // The open-loop serving loop itself must stay cheap: its event
        // loop plus the memoized service model are pure host work, and
        // a wall-clock regression here slows every SLO drill and test.
        // Fixed 1k-request stream in quick and full runs so CI always
        // compares like for like.
        ServeSpec spec;
        spec.model = BertShape{ 1, 256, 4, 1024, 1, 64 };
        spec.batcher.buckets = { 128, 256 };
        spec.batcher.maxBatch = 4;
        spec.instanceCount = 4;
        spec.arrivals.seed = 2022;
        spec.arrivals.count = 1000;
        spec.arrivals.minResidues = 126;
        spec.arrivals.maxResidues = 126;
        const ServiceModel service(spec.instance, spec.model,
                                   spec.dispatchOverheadSeconds);
        spec.arrivals.ratePerSecond =
            0.7 * service.capacityPerSecond(128, spec.batcher.maxBatch,
                                            spec.instanceCount);
        spec.sloSeconds =
            8.0 * service.seconds(128, spec.batcher.maxBatch);
        const ServeSim serve_sim(spec);
        results.push_back(
            timeBench("serve_slo_healthy_1k", repeats, [&] {
                volatile double sink =
                    serve_sim.run().goodputPerSecond;
                (void)sink;
            }));
        results.push_back(
            timeBench("serve_slo_chaos_kill_1k", repeats, [&] {
                FaultInjector injector(
                    CampaignSpec::parse("kill_instance=1@#500"));
                volatile double sink =
                    serve_sim.run(&injector).goodputPerSecond;
                (void)sink;
            }));
    }

    // --- Report -------------------------------------------------------
    Table table({ "bench", "median ms", "p10 ms", "p90 ms", "n" });
    for (const BenchResult &r : results) {
        table.addRow({ r.name, Table::fmt(r.medianMs, 3),
                       Table::fmt(r.p10Ms, 3), Table::fmt(r.p90Ms, 3),
                       std::to_string(r.repeats) });
    }
    table.print(std::cout);

    std::ofstream json(out_path);
    if (!json)
        fatal("cannot write ", out_path);
    json << "{\n"
         << "  \"schema\": \"prose-perf-v1\",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
         << "  \"fsim_layer_speedup\": "
         << jsonEscapeless(fsim_layer_speedup) << ",\n"
         << "  \"benches\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        json << "    {\"name\": \"" << r.name << "\", \"median_ms\": "
             << jsonEscapeless(r.medianMs) << ", \"p10_ms\": "
             << jsonEscapeless(r.p10Ms) << ", \"p90_ms\": "
             << jsonEscapeless(r.p90Ms) << ", \"repeats\": " << r.repeats
             << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    json.close();
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
