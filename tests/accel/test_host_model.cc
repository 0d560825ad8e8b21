/** @file Tests for the host-CPU time model. */

#include <gtest/gtest.h>

#include "accel/host_model.hh"

namespace prose {
namespace {

TEST(HostModel, SoftmaxScalesLinearlyInElements)
{
    const HostModel host;
    const double one = host.softmaxSeconds(1'000'000);
    const double ten = host.softmaxSeconds(10'000'000);
    const double overhead = kHostTaskOverheadSeconds;
    EXPECT_NEAR((ten - overhead) / (one - overhead), 10.0, 1e-9);
}

TEST(HostModel, SoftmaxIncludesFixedOverhead)
{
    const HostModel host;
    EXPECT_GE(host.softmaxSeconds(0), kHostTaskOverheadSeconds);
}

TEST(HostModel, LayerNormCostsMorePassesThanTranspose)
{
    const HostModel host;
    Op ln;
    ln.kind = OpKind::LayerNorm;
    ln.m = 1024;
    ln.n = 768;
    Op tr = ln;
    tr.kind = OpKind::Transpose;
    EXPECT_GT(host.hostOpSeconds(ln), host.hostOpSeconds(tr));
}

TEST(HostModel, SlotThroughputDividesAggregate)
{
    HostSpec spec;
    spec.elemThroughput = 32e9;
    spec.slots = 16;
    EXPECT_DOUBLE_EQ(spec.slotThroughput(), 2e9);
}

TEST(HostModel, RealisticSoftmaxMagnitude)
{
    // One layer of len-512 batch-128 attention: 1536 matrices of
    // 512x512 exp results. Split across 32 threads, each thread's
    // share must take well under the ~5 ms a layer's compute takes —
    // the paper's claim that streaming softmax batches efficiently.
    const HostModel host;
    const std::uint64_t per_thread_elems = 48ull * 512 * 512;
    EXPECT_LT(host.softmaxSeconds(per_thread_elems), 0.005);
}

TEST(HostModel, SoftmaxGangSpeedsUpBatches)
{
    HostSpec slow;
    slow.softmaxGang = 1;
    HostSpec fast;
    fast.softmaxGang = 8;
    EXPECT_GT(HostModel(slow).softmaxSeconds(1'000'000),
              HostModel(fast).softmaxSeconds(1'000'000));
}

TEST(HostModelDeathTest, ZeroThroughputRejected)
{
    HostSpec spec;
    spec.elemThroughput = 0.0;
    EXPECT_DEATH(HostModel{ spec }, "positive");
}

} // namespace
} // namespace prose
