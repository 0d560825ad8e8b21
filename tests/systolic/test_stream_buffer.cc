/** @file Tests for the 8-deep streaming buffer (Little's Law sizing). */

#include <gtest/gtest.h>

#include "systolic/stream_buffer.hh"

namespace prose {
namespace {

/** One gated array cycle on a single buffer: fill, then consume one
 *  entry if one is whole, else record a stall. */
bool
step(StreamBuffer &buffer)
{
    buffer.fillTick();
    if (!buffer.available()) {
        buffer.noteStall();
        return false;
    }
    buffer.consume();
    return true;
}

TEST(StreamBuffer, SufficientRateNeverStalls)
{
    StreamBuffer buffer(8, 1.0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(step(buffer));
    EXPECT_EQ(buffer.stallCycles(), 0u);
    EXPECT_EQ(buffer.consumed(), 1000u);
}

TEST(StreamBuffer, OversupplyCapsAtDepth)
{
    StreamBuffer buffer(8, 100.0);
    buffer.fillTick();
    EXPECT_LE(buffer.occupancy(), 8.0);
}

TEST(StreamBuffer, HalfRateStallsHalfTheTime)
{
    StreamBuffer buffer(8, 0.5);
    std::uint64_t consumed = 0;
    for (int i = 0; i < 1000; ++i)
        consumed += step(buffer) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(consumed), 500.0, 10.0);
    EXPECT_NEAR(static_cast<double>(buffer.stallCycles()), 500.0, 10.0);
}

TEST(StreamBuffer, FractionalRateAccumulates)
{
    // 0.25 entries/cycle -> one consumption every 4 cycles.
    StreamBuffer buffer(8, 0.25);
    std::uint64_t consumed = 0;
    for (int i = 0; i < 400; ++i)
        consumed += step(buffer) ? 1 : 0;
    EXPECT_EQ(consumed, 100u);
}

TEST(StreamBuffer, PrefillAbsorbsBurst)
{
    // Little's Law: a full 8-deep buffer rides out 8 cycles of a
    // starved link before the array stalls.
    StreamBuffer buffer(8, 0.01);
    buffer.restore(StreamBuffer::State{ 8.0, 0, 0, 0 }); // warm link
    int before_stall = 0;
    while (step(buffer))
        ++before_stall;
    EXPECT_EQ(before_stall, 8);
}

TEST(StreamBuffer, SplitPhaseApi)
{
    StreamBuffer buffer(4, 1.0);
    buffer.fillTick();
    ASSERT_TRUE(buffer.available());
    buffer.consume();
    EXPECT_EQ(buffer.consumed(), 1u);
    EXPECT_FALSE(buffer.available());
    buffer.noteStall();
    EXPECT_EQ(buffer.stallCycles(), 1u);
}

TEST(StreamBuffer, StateSnapshotRoundTrips)
{
    StreamBuffer buffer(8, 0.7);
    for (int i = 0; i < 9; ++i)
        step(buffer);
    const StreamBuffer::State saved = buffer.state();
    for (int i = 0; i < 5; ++i)
        step(buffer);
    buffer.restore(saved);
    EXPECT_EQ(buffer.occupancy(), saved.occupancy);
    EXPECT_EQ(buffer.stallCycles(), saved.stalls);
    EXPECT_EQ(buffer.consumed(), saved.consumed);
    EXPECT_EQ(buffer.fillTicks(), saved.fillTicks);
}

TEST(StreamBuffer, FastForwardIdealMatchesTickedRecurrence)
{
    // An ideal-supply buffer clamps to capacity on every fill tick, so
    // the closed form must land on the exact same state as ticking.
    StreamBuffer ticked(8, 1e18);
    StreamBuffer jumped(8, 1e18);
    ASSERT_TRUE(ticked.idealSupply());

    const std::uint64_t cycles = 37, consumes = 21;
    for (std::uint64_t c = 0; c < cycles; ++c) {
        ticked.fillTick();
        if (c < consumes)
            ticked.consume();
    }
    jumped.fastForwardIdeal(cycles, consumes);
    EXPECT_EQ(jumped.occupancy(), ticked.occupancy());
    EXPECT_EQ(jumped.consumed(), ticked.consumed());
    EXPECT_EQ(jumped.fillTicks(), ticked.fillTicks());

    // Consuming on the final cycle leaves depth - 1 instead of depth.
    StreamBuffer ticked_full(8, 1e18);
    StreamBuffer jumped_full(8, 1e18);
    for (std::uint64_t c = 0; c < cycles; ++c) {
        ticked_full.fillTick();
        ticked_full.consume();
    }
    jumped_full.fastForwardIdeal(cycles, cycles);
    EXPECT_EQ(jumped_full.occupancy(), ticked_full.occupancy());
    EXPECT_EQ(jumped_full.consumed(), ticked_full.consumed());
}

TEST(StreamBufferDeathTest, ConsumeEmptyPanics)
{
    StreamBuffer buffer(4, 0.1);
    EXPECT_DEATH(buffer.consume(), "empty");
}

TEST(StreamBufferDeathTest, ZeroDepthRejected)
{
    EXPECT_DEATH(StreamBuffer(0, 1.0), "depth");
}

} // namespace
} // namespace prose
