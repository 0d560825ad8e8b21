/**
 * @file
 * Table 2: physical design characteristics of the ProSE systolic arrays
 * and special-function units (FreePDK 15 nm + OpenRAM, scaled to 7 nm),
 * with the %A100-power and %A100-area columns.
 */

#include "bench_util.hh"
#include "power/component_db.hh"

using namespace prose;
using namespace prose::bench;

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Table 2: heterogeneous systolic array physical characteristics");

    Table table({ "Dim", "GELU", "Exp", "Freq(MHz)", "Power(mW)",
                  "+InBuf(mW)", "%A100 Pwr", "Area(mm2)", "+InBuf(mm2)",
                  "%A100 Area" });
    for (const ComponentSpec &spec :
         ComponentDb::instance().components()) {
        table.addRow({
            std::to_string(spec.dim) + "x" + std::to_string(spec.dim),
            spec.hasGelu ? "yes" : "no",
            spec.hasExp ? "yes" : "no",
            Table::fmt(spec.frequencyMhz, 1),
            Table::fmt(spec.powerMw, 1),
            Table::fmt(spec.powerInBufMw, 1),
            Table::fmt(spec.percentA100Power(true), 2) + "%",
            Table::fmt(spec.areaMm2, 3),
            Table::fmt(spec.areaInBufMm2, 3),
            Table::fmt(spec.percentA100Area(true), 2) + "%",
        });
    }
    table.print(std::cout);

    std::cout << "\nDerived clocking: slowest matmul-capable array "
              << "1626.1 MHz -> double-pumped 1.6 GHz;\nslowest "
              << "LUT-equipped array 858.1 MHz -> SIMD/special functions "
              << "at 800 MHz.\n";
    return 0;
}
