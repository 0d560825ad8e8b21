/**
 * @file
 * A recorded sequence of tensor ops plus aggregate queries over it.
 */

#ifndef PROSE_TRACE_OP_TRACE_HH
#define PROSE_TRACE_OP_TRACE_HH

#include <vector>

#include "op.hh"

namespace prose {

/**
 * Append-only op recorder. The instrumented model forward fills one of
 * these; the dataflow builder and the baseline cost models consume it.
 */
class OpTrace
{
  public:
    /** Record one op. */
    void record(const Op &op) { ops_.push_back(op); }

    /** Convenience builder used by the model's instrumentation points. */
    void record(OpKind kind, Sublayer sublayer, int layer,
                std::uint64_t batch, std::uint64_t m, std::uint64_t k,
                std::uint64_t n, bool broadcast = false);

    const std::vector<Op> &ops() const { return ops_; }
    std::size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }
    const Op &at(std::size_t i) const { return ops_.at(i); }

    /** Total floating-point work in the trace. */
    double totalFlops() const;

  private:
    std::vector<Op> ops_;
};

} // namespace prose

#endif // PROSE_TRACE_OP_TRACE_HH
