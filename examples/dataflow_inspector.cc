/**
 * @file
 * Dataflow inspector: watch one tile travel the microarchitecture.
 *
 * Executes a fused Dataflow 2 (MatMul -> MulAdd -> GELU) on the
 * register-accurate cycle-stepped systolic array, printing the phase
 * boundaries, cycle counts, stalls under a throttled link, and a
 * bit-exact comparison against the reference math — then shows how a
 * whole Protein BERT layer maps onto dataflow tasks.
 *
 * Build & run:  ./build/examples/dataflow_inspector
 */

#include <iostream>

#include "bench_util.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "numerics/lut.hh"
#include "systolic/systolic_array.hh"
#include "systolic/timing_model.hh"
#include "trace/dataflow.hh"

using namespace prose;

int
main(int argc, char **argv)
{
    bench::rejectArgs(argc, argv);
    std::cout << "ProSE dataflow inspector\n========================\n\n";

    // --- One fused Dataflow 2 on a 16x16 G-Type array ------------------
    const std::size_t n = 16, k = 48;
    Rng rng(2022);
    Matrix a(n, k), b(k, n), bias(n, n);
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    bias.fillGaussian(rng, 0.0f, 1.0f);

    SystolicArray array(ArrayGeometry::gType(16));
    Table phases({ "phase", "mode", "cycles", "clock", "notes" });

    const std::uint64_t mm = array.matmulTile(a, b);
    phases.addRow({ "MatMul 16x48 x 48x16", "matmul",
                    std::to_string(mm), "1.6 GHz",
                    "k + 2n - 2 wavefronts, output-stationary" });
    const std::uint64_t mul = array.simdScalar(SimdOp::MulScalar, 1.0f);
    phases.addRow({ "MulAdd: MUL pass", "simd", std::to_string(mul),
                    "800 MHz", "broadcast scalar, left rotation" });
    const std::uint64_t addv = array.simdVector(SimdOp::AddVector, bias);
    phases.addRow({ "MulAdd: ADD pass", "simd", std::to_string(addv),
                    "800 MHz", "vector register streams one col/cycle" });
    const std::uint64_t gelu = array.simdSpecial(SimdOp::Gelu);
    phases.addRow({ "GELU", "simd", std::to_string(gelu), "800 MHz",
                    "two-level 4 KB LUT per SIMD ALU" });
    Matrix out;
    const std::uint64_t drain = array.drain(out);
    phases.addRow({ "drain", "simd", std::to_string(drain), "800 MHz",
                    "OUTPUT taps accumulator bits [31:16]" });
    phases.print(std::cout);

    // Bit-exact check against the reference numerics.
    const TwoLevelLut &lut = geluLut();
    const Matrix mm_ref = matmulBf16(a, b);
    float worst = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const float scaled = quantizeBf16(
                truncateBf16(mm_ref(i, j)) * quantizeBf16(1.0f));
            const float biased = quantizeBf16(
                truncateBf16(scaled) + quantizeBf16(bias(i, j)));
            const float expected = truncateBf16(
                lut.lookup(truncateToBf16(biased)).toFloat());
            worst = std::max(worst, std::abs(out(i, j) - expected));
        }
    }
    std::cout << "\nbit-exact vs reference accelerator numerics: "
              << (worst == 0.0f ? "yes" : "NO") << "\n";
    std::cout << "elapsed on-array time: "
              << Table::fmt(array.elapsedSeconds() * 1e9, 1) << " ns, "
              << array.macCount() << " MACs, " << array.simdOpCount()
              << " SIMD ops\n\n";

    // --- The same dataflow under a starved link -------------------------
    SystolicArray starved(ArrayGeometry::gType(16), 0.5, 0.5);
    const std::uint64_t slow_mm = starved.matmulTile(a, b);
    std::cout << "under a half-rate link the same MatMul takes "
              << slow_mm << " cycles (" << starved.stallCycles()
              << " stalls) -- why the 8-deep stream buffers and lane "
                 "provisioning matter.\n\n";

    // --- A full layer's dataflow mapping --------------------------------
    std::cout << "Protein BERT layer -> dataflow mapping (Figure 7), "
                 "batch 1, 512 tokens:\n\n";
    const OpTrace trace =
        synthesizeBertTrace(BertShape{ 1, 768, 12, 3072, 1, 512 });
    const auto tasks = DataflowBuilder{}.build(trace);
    Table mapping({ "task", "type", "ops", "GFLOP", "stream-in(MB)" });
    for (const auto &task : tasks) {
        if (task.layer > 0)
            break; // just layer 0
        if (task.kind == DataflowKind::Host)
            continue;
        std::string ops;
        for (const auto &op : task.ops) {
            if (!ops.empty())
                ops += "->";
            ops += toString(op.kind);
        }
        const char *pool = task.kind == DataflowKind::Dataflow1   ? "M"
                           : task.kind == DataflowKind::Dataflow2 ? "G"
                                                                  : "E";
        mapping.addRow({ task.describe().substr(0, 28), pool, ops,
                         Table::fmt(task.flops() / 1e9, 2),
                         Table::fmt(task.streamBytesIn() / 1e6, 2) });
    }
    mapping.print(std::cout);
    return 0;
}
