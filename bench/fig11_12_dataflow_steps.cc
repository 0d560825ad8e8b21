/**
 * @file
 * Figures 11/12: the microarchitectural step-by-step comparison of a
 * MatMul and a MulAdd on a TPUv2 (weight-stationary, Unified-Buffer
 * global dataflow) versus ProSE (output-stationary streaming, local
 * dataflow). Reports trip counts, storage traffic, and an illustrative
 * data-movement-energy ratio — the mechanism behind Figure 19's
 * efficiency gap.
 */

#include <chrono>

#include "baseline/tpu_dataflow.hh"
#include "bench_util.hh"
#include "common/logging.hh"
#include "dse/dse_engine.hh"

using namespace prose;
using namespace prose::bench;

namespace {

void
addRow(Table &table, const std::string &name, const DataflowTrip &trip)
{
    table.addRow({ name, std::to_string(trip.trips),
                   Table::fmtInt(static_cast<long long>(trip.steps)),
                   Table::fmt(trip.unifiedBufferBytes / 1e6, 2),
                   Table::fmt(trip.weightBytes / 1e6, 3),
                   Table::fmt(trip.hostStreamBytes / 1e6, 2),
                   Table::fmt(trip.movementEnergyJoules() * 1e3, 3) });
}

/**
 * Ground the analytic step counts above in the register-accurate
 * simulator: run the DSE validation probes in the requested engine mode
 * and report measured vs closed-form cycles. Wall time per engine goes
 * to stderr, so stdout holds modelled results only.
 */
void
functionalCrossCheck()
{
    const FsimMode mode = defaultFsimMode();
    banner(std::string("Functional-simulator cross-check "
                       "(PROSE_FSIM_MODE=") +
           toString(mode) + ")");

    const DseEngine engine;

    std::vector<FsimMode> probes{ mode };
    for (FsimMode extra : { FsimMode::Fast, FsimMode::Stepped })
        if (extra != mode)
            probes.push_back(extra);

    Table table({ "engine", "matmul-cycles", "model-cycles", "MACs",
                  "max|err|", "ok" });
    for (FsimMode probe : probes) {
        const auto t0 = std::chrono::steady_clock::now();
        const DseValidationReport report =
            engine.validate(ProseConfig::bestPerf(), probe);
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        table.addRow(
            { toString(probe),
              Table::fmtInt(static_cast<long long>(report.fsimMatmulCycles)),
              Table::fmtInt(static_cast<long long>(report.modelMatmulCycles)),
              Table::fmtInt(static_cast<long long>(report.macCount)),
              Table::fmt(report.maxAbsError, 3),
              report.ok ? "yes" : "NO" });
        std::cerr << "fig11_12_dataflow_steps: " << toString(probe)
                  << " cross-check took " << Table::fmt(ms, 2)
                  << " ms wall\n";
        if (!report.ok)
            fatal("functional cross-check failed in ", toString(probe),
                  " mode");
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Figure 11: MatMul on TPUv2 (global) vs ProSE (local) "
           "dataflow");

    // The Protein BERT projection shape at the operating point
    // (per-thread slice): m = 2048 tokens, k = n = 768.
    Table matmul({ "design", "trips", "steps", "UB(MB)", "weights(MB)",
                   "host-stream(MB)", "movement-energy(mJ)" });
    addRow(matmul, "TPUv2 128x128", tpuMatMulTrip(2048, 768, 768, 128));
    addRow(matmul, "ProSE 64x64 +InBuf",
           proseMatMulTrip(2048, 768, 768, 64, true));
    addRow(matmul, "ProSE 64x64 no buffer",
           proseMatMulTrip(2048, 768, 768, 64, false));
    matmul.print(std::cout);

    banner("Figure 11(c) toy example: 4x4 x 4x4 on a 2x2 array");
    Table toy({ "design", "trips", "steps", "UB(MB)", "weights(MB)",
                "host-stream(MB)", "movement-energy(mJ)" });
    addRow(toy, "TPUv2-style 2x2", tpuMatMulTrip(4, 4, 4, 2));
    addRow(toy, "ProSE 2x2", proseMatMulTrip(4, 4, 4, 2));
    toy.print(std::cout);

    banner("Figure 12: MulAdd a*A + B (2048 x 768)");
    Table muladd({ "design", "trips", "steps", "UB(MB)", "weights(MB)",
                   "host-stream(MB)", "movement-energy(mJ)" });
    addRow(muladd, "TPUv2 (Normalization+Accum)",
           tpuMulAddTrip(2048, 768, 128));
    addRow(muladd, "ProSE (simd mode, fused)",
           proseMulAddTrip(2048, 768, 64));
    muladd.print(std::cout);

    std::cout << "\nPaper reference: the TPUv2 traverses two to three "
                 "global-dataflow trips through\nthe Unified Buffer per "
                 "MulAdd; ProSE performs it in one local trip with the\n"
                 "intermediate living in the PE accumulators — the "
                 "mechanism behind the Figure 19\npower-efficiency "
                 "gap.\n";

    functionalCrossCheck();
    return 0;
}
