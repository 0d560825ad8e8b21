/**
 * @file
 * Figure 3: runtime breakdown of Protein BERT operations on the A100 as
 * a function of input sequence length.
 *
 * Paper shape: Matrix Multiply dominates at short lengths; its share
 * falls as length grows while Softmax and the elementwise categories
 * (Matrix Add / Div) expand; MatMul+BMM stay within ~35-52% overall.
 */

#include "bench_util.hh"

using namespace prose;
using namespace prose::bench;

int
main(int argc, char **argv)
{
    rejectArgs(argc, argv);
    banner("Figure 3: A100 runtime breakdown by op class vs input length");

    const auto a100 = makeA100();
    const OpCategory categories[] = {
        OpCategory::MatMul, OpCategory::BatchedMatMul,
        OpCategory::Softmax, OpCategory::Gelu, OpCategory::MatAdd,
        OpCategory::MatDiv, OpCategory::Other,
    };

    Table table({ "len", "MatMul", "BMM", "Softmax", "GELU", "MatAdd",
                  "MatDiv", "Other", "total(s)" });
    for (const LengthPoint &point : paperLengthSweep()) {
        const PlatformResult result =
            a100->costTrace(synthesizeBertTrace(shapeFor(point)));
        const auto fractions = result.categoryFractions();
        std::vector<std::string> row{ std::to_string(point.seqLen) };
        for (OpCategory category : categories) {
            const auto it = fractions.find(category);
            const double f = it == fractions.end() ? 0.0 : it->second;
            row.push_back(Table::fmt(100.0 * f, 1) + "%");
        }
        row.push_back(Table::fmt(result.totalSeconds, 3));
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    std::cout << "\nPaper reference: MatMul share falls with length while "
                 "Softmax/Add/Div grow;\nmatmuls (dense+batched) remain "
                 "35-52% of runtime at every length.\n";
    return 0;
}
