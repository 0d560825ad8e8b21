#include "stream_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace prose {

StreamBuffer::StreamBuffer(std::uint32_t depth, double supply_rate)
    : depth_(static_cast<double>(depth)), supplyRate_(supply_rate)
{
    PROSE_ASSERT(depth > 0, "stream buffer needs non-zero depth");
    PROSE_ASSERT(supply_rate > 0.0, "stream buffer needs a supply rate");
}

void
StreamBuffer::fillTick()
{
    occupancy_ = std::min(depth_, occupancy_ + supplyRate_);
    ++fillTicks_;
}

void
StreamBuffer::consume()
{
    PROSE_ASSERT(occupancy_ >= 1.0, "consume from an empty stream buffer");
    occupancy_ -= 1.0;
    ++consumed_;
}

void
StreamBuffer::fastForwardIdeal(std::uint64_t cycles,
                               std::uint64_t consumes)
{
    PROSE_ASSERT(idealSupply(),
                 "fast-forward on a non-ideal stream buffer");
    PROSE_ASSERT(consumes <= cycles,
                 "more consumes than fill cycles: ", consumes, " > ",
                 cycles);
    if (cycles == 0)
        return;
    // Every fill tick saturates occupancy to exactly depth; the final
    // cycle leaves depth - 1 only if it also consumed.
    occupancy_ = consumes == cycles ? depth_ - 1.0 : depth_;
    consumed_ += consumes;
    fillTicks_ += cycles;
}

StreamBuffer::State
StreamBuffer::state() const
{
    return State{ occupancy_, stalls_, consumed_, fillTicks_ };
}

void
StreamBuffer::restore(const State &state)
{
    occupancy_ = state.occupancy;
    stalls_ = state.stalls;
    consumed_ = state.consumed;
    fillTicks_ = state.fillTicks;
}

} // namespace prose
