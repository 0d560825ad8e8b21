/** @file Tests for the op-trace recorder and its aggregates. */

#include <gtest/gtest.h>

#include "trace/op_trace.hh"

namespace prose {
namespace {

TEST(OpTrace, RecordAndQuery)
{
    OpTrace trace;
    EXPECT_TRUE(trace.empty());
    trace.record(OpKind::MatMul, Sublayer::Attention, 0, 1, 4, 4, 4);
    trace.record(OpKind::Gelu, Sublayer::Intermediate, 0, 1, 4, 0, 4);
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.at(0).kind, OpKind::MatMul);
    EXPECT_EQ(trace.at(1).sublayer, Sublayer::Intermediate);
}

TEST(OpTrace, TotalFlopsSums)
{
    OpTrace trace;
    trace.record(OpKind::MatMul, Sublayer::Attention, 0, 1, 2, 3, 4);
    trace.record(OpKind::MatMul, Sublayer::Attention, 0, 1, 2, 3, 4);
    EXPECT_DOUBLE_EQ(trace.totalFlops(), 2 * 2.0 * 2 * 3 * 4);
}

TEST(OpTrace, BroadcastFlagRecorded)
{
    OpTrace trace;
    trace.record(OpKind::MulAdd, Sublayer::Attention, 0, 1, 8, 0, 8,
                 true);
    trace.record(OpKind::MulAdd, Sublayer::Attention, 0, 1, 8, 0, 8);
    EXPECT_TRUE(trace.at(0).broadcast);
    EXPECT_FALSE(trace.at(1).broadcast);
}

} // namespace
} // namespace prose
