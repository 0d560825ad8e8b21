#include "host_model.hh"

#include "common/logging.hh"

namespace prose {

HostModel::HostModel(HostSpec spec)
    : spec_(spec)
{
    PROSE_ASSERT(spec_.elemThroughput > 0.0 && spec_.slots > 0,
                 "host spec needs positive throughput and slots");
}

double
HostModel::softmaxSeconds(std::uint64_t elems) const
{
    // Two streaming passes (sum, then divide) over the exp results,
    // ganged across several worker slots.
    const double rate = spec_.slotThroughput() * spec_.softmaxGang;
    return kHostTaskOverheadSeconds +
           2.0 * static_cast<double>(elems) / rate;
}

double
HostModel::hostOpSeconds(const Op &op) const
{
    const double elems = static_cast<double>(op.outputElems());
    double passes = 1.0;
    switch (op.kind) {
      case OpKind::LayerNorm:
        // mean, variance, normalize+affine.
        passes = 3.0;
        break;
      case OpKind::Embed:
        // Gather: one read + one write pass.
        passes = 2.0;
        break;
      case OpKind::Transpose:
        // Strided copy; charge two passes for the poor locality.
        passes = 2.0;
        break;
      case OpKind::SoftmaxHost:
        passes = 2.0;
        break;
      default:
        // Any op can fall back to the host at one pass per element;
        // the scheduler only routes Other-class ops here in practice.
        passes = 2.0;
        break;
    }
    return kHostTaskOverheadSeconds +
           passes * elems / spec_.slotThroughput();
}

} // namespace prose
