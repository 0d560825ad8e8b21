/** @file Tests for the intrusive request FIFO. */

#include <gtest/gtest.h>

#include "serve/queue.hh"

namespace prose {
namespace {

RequestArena
arenaOf(std::size_t n)
{
    RequestArena arena(n);
    for (std::size_t i = 0; i < n; ++i) {
        arena[i].id = static_cast<RequestId>(i);
        arena[i].arrivalSeconds = static_cast<double>(i);
    }
    return arena;
}

TEST(RequestFifo, FifoOrder)
{
    RequestArena arena = arenaOf(3);
    RequestFifo fifo;
    EXPECT_TRUE(fifo.empty());
    fifo.pushBack(arena, 0);
    fifo.pushBack(arena, 1);
    fifo.pushBack(arena, 2);
    EXPECT_EQ(fifo.size(), 3u);
    EXPECT_EQ(fifo.front(), 0);
    EXPECT_EQ(fifo.popFront(arena), 0u);
    EXPECT_EQ(fifo.popFront(arena), 1u);
    EXPECT_EQ(fifo.popFront(arena), 2u);
    EXPECT_TRUE(fifo.empty());
}

TEST(RequestFifo, RemoveFromMiddleAndEnds)
{
    RequestArena arena = arenaOf(4);
    RequestFifo fifo;
    for (RequestId id = 0; id < 4; ++id)
        fifo.pushBack(arena, id);
    fifo.remove(arena, 1); // middle
    fifo.remove(arena, 3); // tail
    EXPECT_EQ(fifo.size(), 2u);
    EXPECT_EQ(fifo.popFront(arena), 0u);
    EXPECT_EQ(fifo.popFront(arena), 2u);
    // Removed requests are fully unlinked and can be re-queued.
    fifo.pushBack(arena, 1);
    EXPECT_EQ(fifo.front(), 1);
}

TEST(RequestFifo, ReuseAfterPop)
{
    RequestArena arena = arenaOf(2);
    RequestFifo fifo;
    fifo.pushBack(arena, 0);
    EXPECT_EQ(fifo.popFront(arena), 0u);
    fifo.pushBack(arena, 0); // a popped request can come back
    EXPECT_EQ(fifo.size(), 1u);
}

TEST(RequestFifoDeathTest, DoubleEnqueuePanics)
{
    RequestArena arena = arenaOf(2);
    RequestFifo fifo;
    fifo.pushBack(arena, 0);
    EXPECT_DEATH(fifo.pushBack(arena, 0), "already queued");
}

TEST(RequestFifoDeathTest, PopEmptyPanics)
{
    RequestArena arena = arenaOf(1);
    RequestFifo fifo;
    EXPECT_DEATH(fifo.popFront(arena), "empty queue");
}

TEST(RequestFifoDeathTest, RemoveUnlinkedPanics)
{
    RequestArena arena = arenaOf(2);
    RequestFifo fifo;
    fifo.pushBack(arena, 0);
    EXPECT_DEATH(fifo.remove(arena, 1), "not in this queue");
}

} // namespace
} // namespace prose
