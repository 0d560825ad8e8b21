#include "timing_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"

namespace prose {

double
TaskCost::computeSeconds(const ArrayGeometry &geometry) const
{
    return static_cast<double>(matmulCycles) / geometry.matmulClockHz +
           static_cast<double>(simdCycles) / geometry.simdClockHz;
}

TimingModel::TimingModel(bool partial_input_buffer)
    : partialInputBuffer_(partial_input_buffer)
{
}

std::uint64_t
TimingModel::matmulCycles(std::uint64_t m, std::uint64_t k, std::uint64_t n,
                          std::uint64_t s)
{
    PROSE_ASSERT(m > 0 && k > 0 && n > 0 && s > 0, "empty matmul");
    const std::uint64_t tiles_m = ceilDiv(m, s);
    const std::uint64_t tiles_n = ceilDiv(n, s);
    // Sum over tiles of (k - 2 + rows_t + cols_t). Tile row heights sum
    // to m over a tile column and vice versa, so the total collapses to:
    return tiles_m * tiles_n * (k - 2) + tiles_n * m + tiles_m * n;
}

std::uint64_t
TimingModel::simdPassCycles(std::uint64_t m, std::uint64_t n,
                            std::uint64_t s)
{
    PROSE_ASSERT(m > 0 && n > 0 && s > 0, "empty SIMD pass");
    // Each resident tile needs `cols_t` rotation cycles; summed over one
    // tile row that is n, and there are ceil(m/s) tile rows.
    return ceilDiv(m, s) * n;
}

std::uint64_t
TimingModel::restreamBytes(std::uint64_t m, std::uint64_t k,
                           std::uint64_t n, std::uint64_t s)
{
    // Without the partial buffer, every output tile must re-receive one
    // of its operands. The better loop order restreams the cheaper one:
    // A per tile-column (tiles_n - 1 extra copies of m x k) or B per
    // tile-row (tiles_m - 1 extra copies of k x n).
    const std::uint64_t tiles_m = ceilDiv(m, s);
    const std::uint64_t tiles_n = ceilDiv(n, s);
    const std::uint64_t restream_a = (tiles_n - 1) * m * k;
    const std::uint64_t restream_b = (tiles_m - 1) * k * n;
    return std::min(restream_a, restream_b) * kBf16Bytes;
}

TaskCost
TimingModel::costTask(const DataflowTask &task,
                      const ArrayGeometry &geometry) const
{
    TaskCost cost;
    cost.flops = task.flops();
    const std::uint64_t s = geometry.dim;

    if (task.kind == DataflowKind::Host) {
        // Host tasks cost no accelerator cycles; the HostModel charges
        // their time separately.
        return cost;
    }

    for (const auto &op : task.ops) {
        switch (op.kind) {
          case OpKind::MatMul:
          case OpKind::Bmm: {
            cost.matmulCycles +=
                op.batch * matmulCycles(op.m, op.k, op.n, s);
            cost.tiles += op.batch * ceilDiv(op.m, s) * ceilDiv(op.n, s);
            cost.bytesIn += op.bytesIn(kBf16Bytes);
            if (!partialInputBuffer_)
                cost.bytesIn +=
                    op.batch * restreamBytes(op.m, op.k, op.n, s);
            // Every matmul's result eventually drains through the
            // OUTPUT port (one rotation pass), either to feed the host
            // (DF3 Exp results, task outputs) or as the task result.
            cost.simdCycles +=
                op.batch * simdPassCycles(op.m, op.n, s);
            break;
          }
          case OpKind::MulAdd:
            // MUL pass (broadcast scalar) + ADD pass (vector register).
            cost.simdCycles +=
                2 * op.batch * simdPassCycles(op.m, op.n, s);
            cost.bytesIn += op.batch * (op.broadcast ? op.n : op.m * op.n)
                            * kBf16Bytes;
            break;
          case OpKind::MatDiv:
            cost.simdCycles +=
                op.batch * simdPassCycles(op.m, op.n, s);
            break;
          case OpKind::Exp:
            PROSE_ASSERT(geometry.hasExp,
                         "Dataflow 3 scheduled on an array without Exp");
            cost.simdCycles +=
                op.batch * simdPassCycles(op.m, op.n, s);
            break;
          case OpKind::Gelu:
            PROSE_ASSERT(geometry.hasGelu,
                         "Dataflow 2 scheduled on an array without GELU");
            cost.simdCycles +=
                op.batch * simdPassCycles(op.m, op.n, s);
            break;
          case OpKind::SoftmaxHost:
            cost.hostSoftmaxElems += op.batch * op.m * op.n;
            break;
          default:
            panic("host op inside an accelerator dataflow: ",
                  op.describe());
        }
    }

    cost.bytesOut = task.streamBytesOut();
    return cost;
}

} // namespace prose
