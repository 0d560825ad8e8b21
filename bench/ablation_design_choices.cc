/**
 * @file
 * Ablations of the design choices DESIGN.md calls out, beyond the
 * paper's own figures:
 *
 *   A. the Figure 11(d) partial input buffer (on/off) across bandwidths
 *   B. static link-lane partitioning (best vs worst split)
 *   C. software thread count (the Figure 8 axis, denser sweep)
 *   D. hardware GELU LUT vs a TPU-style 10+ MulAdd approximation chain
 *   E. host softmax ganging (streaming-batched vs naive single-slot)
 */

#include "bench_util.hh"
#include "dse/dse_engine.hh"
#include "systolic/timing_model.hh"

using namespace prose;
using namespace prose::bench;

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    const BertShape shape = operatingPoint();

    banner("Ablation A: partial input buffer across link bandwidths");
    {
        Table table({ "link(GB/s)", "with-buffer(ms)", "no-buffer(ms)",
                      "slowdown" });
        for (double gbps : { 90.0, 270.0, 540.0 }) {
            ProseConfig with_buffer = ProseConfig::bestPerf();
            with_buffer.link = LinkSpec::custom(gbps);
            ProseConfig without = with_buffer;
            without.partialInputBuffer = false;
            const double a = simulate(with_buffer, shape).makespan;
            const double b =
                PerfSim(without).run(shape).makespan;
            table.addRow({ Table::fmt(gbps, 0), Table::fmt(a * 1e3, 1),
                           Table::fmt(b * 1e3, 1),
                           Table::fmt(b / a, 2) });
        }
        table.print(std::cout);
    }

    banner("Ablation B: link-lane partitioning (6 lanes, 270 GB/s)");
    {
        Table table({ "partition", "makespan(ms)", "vs-best" });
        double best = 1e9;
        std::vector<std::pair<std::string, double>> rows;
        for (const LanePartition &lanes : LanePartition::enumerate(6)) {
            ProseConfig config = ProseConfig::bestPerf();
            config.lanes = lanes;
            const double t = simulate(config, shape).makespan;
            best = std::min(best, t);
            rows.emplace_back(lanes.describe(), t);
        }
        for (const auto &[name, t] : rows)
            table.addRow({ name, Table::fmt(t * 1e3, 1),
                           Table::fmt(t / best, 3) });
        table.print(std::cout);
    }

    banner("Ablation C: software thread count");
    {
        Table table({ "threads", "makespan(ms)", "inf/s" });
        for (std::uint32_t threads : { 1u, 2u, 4u, 8u, 16u, 32u, 64u,
                                       128u }) {
            ProseConfig config = ProseConfig::bestPerf();
            config.threads = threads;
            const SimReport report = simulate(config, shape);
            table.addRow({ std::to_string(threads),
                           Table::fmt(report.makespan * 1e3, 1),
                           Table::fmt(report.inferencesPerSecond(),
                                      0) });
        }
        table.print(std::cout);
    }

    banner("Ablation D: GELU LUT vs 10+-MulAdd approximation chain");
    {
        // Per layer at the operating point, the intermediate activation
        // is (batch*len) x 3072 elements. A hardware LUT is one SIMD
        // pass; a Taylor-style approximation costs >= 10 MulAdds = 20
        // rotation passes on the same arrays.
        const std::uint64_t m = shape.batch * shape.seqLen;
        const std::uint64_t n = shape.intermediate;
        Table table({ "approach", "SIMD passes", "cycles/layer",
                      "ms/layer @800MHz (10x G16)" });
        for (const auto &[name, passes] :
             std::vector<std::pair<std::string, std::uint64_t>>{
                 { "GELU LUT (ProSE)", 1 },
                 { "10-term MulAdd chain", 20 } }) {
            const std::uint64_t cycles =
                passes * TimingModel::simdPassCycles(m, n, 16);
            table.addRow({ name, std::to_string(passes),
                           Table::fmtInt(static_cast<long long>(cycles)),
                           Table::fmt(cycles / 10.0 / 800e6 * 1e3, 2) });
        }
        table.print(std::cout);
    }

    banner("Ablation E: host softmax ganging");
    {
        Table table({ "softmax gang", "makespan(ms)", "host-busy(s)" });
        for (std::uint32_t gang : { 1u, 2u, 4u, 8u, 16u }) {
            HostSpec host_spec;
            host_spec.softmaxGang = gang;
            SimOptions options;
            options.host = HostModel(host_spec);
            PerfSim sim(ProseConfig::bestPerf(), options);
            const SimReport report = sim.run(shape);
            table.addRow({ std::to_string(gang),
                           Table::fmt(report.makespan * 1e3, 1),
                           Table::fmt(report.hostBusySeconds, 2) });
        }
        table.print(std::cout);
    }

    std::cout << "\nEach ablation isolates one DESIGN.md decision; see "
                 "EXPERIMENTS.md for discussion.\n";
    return 0;
}
