#include "op_trace.hh"

namespace prose {

void
OpTrace::record(OpKind kind, Sublayer sublayer, int layer,
                std::uint64_t batch, std::uint64_t m, std::uint64_t k,
                std::uint64_t n, bool broadcast)
{
    Op op;
    op.kind = kind;
    op.sublayer = sublayer;
    op.layer = layer;
    op.batch = batch;
    op.m = m;
    op.k = k;
    op.n = n;
    op.broadcast = broadcast;
    ops_.push_back(op);
}

double
OpTrace::totalFlops() const
{
    double total = 0.0;
    for (const auto &op : ops_)
        total += op.flops();
    return total;
}

} // namespace prose
