/** @file Tests for the SLO-aware dynamic batcher, including the
 *  mandated edge cases: empty-bucket flush, a single oversize request
 *  that cannot meet its SLO, a deadline expiring inside a formed batch,
 *  and the retry-after-shed interaction. */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "serve/serve_batcher.hh"
#include "serve/serve_sim.hh"

namespace prose {
namespace {

/** The serving defaults, for the dispatch overhead ServeSim charges. */
const ServeSpec kServeDefaults;

class ServeBatcherTest : public ::testing::Test
{
  protected:
    ServeBatcherTest()
        : model_(ProseConfig::bestPerf(),
                 BertShape{ 1, 256, 4, 1024, 1, 64 },
                 kServeDefaults.dispatchOverheadSeconds)
    {
    }

    ServeBatcherSpec
    spec(std::uint64_t max_batch = 2) const
    {
        ServeBatcherSpec s;
        s.buckets = { 128, 256 };
        s.maxBatch = max_batch;
        return s;
    }

    /** Request slot in ADMITTED state, ready for enqueue. */
    RequestId
    admitted(RequestArena &arena, std::uint64_t residues,
             double deadline, double arrival = 0.0)
    {
        Request request;
        request.id = static_cast<RequestId>(arena.size());
        request.arrivalSeconds = arrival;
        request.residues = residues;
        request.deadlineSeconds = deadline;
        transition(request, RequestState::Admitted, 0.0);
        arena.push_back(request);
        return request.id;
    }

    ServiceModel model_;
};

TEST_F(ServeBatcherTest, EmptyBucketFlushIsCleanNoOp)
{
    ServeBatcher batcher(spec(), model_);
    RequestArena arena;
    ClosedBatch batch;
    EXPECT_FALSE(batcher.close(arena, 0.0, batch, /*force=*/true));
    EXPECT_FALSE(batcher.close(arena, 0.0, batch, /*force=*/false));
    EXPECT_EQ(batcher.queued(), 0u);
    EXPECT_EQ(batcher.shedVictim(arena), kNoRequest);
    EXPECT_TRUE(
        std::isinf(batcher.nextCloseSeconds(arena)));
}

TEST_F(ServeBatcherTest, SingleOversizeRequestTimesOutAtClose)
{
    // A request whose solo service time already exceeds its SLO window
    // can never be served; the batcher must close immediately (its
    // latest safe close time is in the past) and time it out rather
    // than burn accelerator time.
    ServeBatcher batcher(spec(), model_);
    RequestArena arena;
    const double service = model_.seconds(128, 1);
    const RequestId id = admitted(arena, 126, 0.5 * service);
    batcher.enqueue(arena, id);
    EXPECT_LE(batcher.nextCloseSeconds(arena), 0.0);
    ClosedBatch batch;
    ASSERT_TRUE(batcher.close(arena, 0.0, batch));
    EXPECT_TRUE(batch.members.empty());
    ASSERT_EQ(batch.expired.size(), 1u);
    EXPECT_EQ(batch.expired[0], id);
    EXPECT_EQ(arena[id].state, RequestState::TimedOut);
    EXPECT_DOUBLE_EQ(batch.serviceSeconds, 0.0);
    EXPECT_EQ(batcher.queued(), 0u);
}

TEST_F(ServeBatcherTest, DeadlineExpiredInsideFormedBatch)
{
    // Both requests fit the bucket; the batch becomes full and closes,
    // but by then one member's deadline is no longer reachable with the
    // formed batch's service time. It must be dropped pre-dispatch and
    // the batch re-costed for the survivors.
    ServeBatcher batcher(spec(2), model_);
    RequestArena arena;
    const double pair_service = model_.seconds(128, 2);
    const RequestId healthy = admitted(arena, 126, 100.0);
    const RequestId doomed =
        admitted(arena, 126, 0.9 * pair_service);
    batcher.enqueue(arena, healthy);
    batcher.enqueue(arena, doomed);
    ClosedBatch batch;
    ASSERT_TRUE(batcher.close(arena, 0.0, batch)); // full bucket
    ASSERT_EQ(batch.members.size(), 1u);
    EXPECT_EQ(batch.members[0], healthy);
    ASSERT_EQ(batch.expired.size(), 1u);
    EXPECT_EQ(batch.expired[0], doomed);
    EXPECT_EQ(arena[doomed].state, RequestState::TimedOut);
    EXPECT_EQ(arena[healthy].state, RequestState::Batched);
    // Survivor batch re-costed at its real size.
    EXPECT_DOUBLE_EQ(batch.serviceSeconds, model_.seconds(128, 1));
}

TEST_F(ServeBatcherTest, RetryAfterShedInteraction)
{
    // Overload shedding and a retry landing in the same bucket: the
    // shed victim is the oldest request, the retried request (already
    // on attempt 2) joins the queue like any other admission, and the
    // next close serves what is left — nothing references the shed
    // request again.
    ServeBatcher batcher(spec(2), model_);
    RequestArena arena;
    const RequestId oldest = admitted(arena, 126, 100.0);
    const RequestId younger = admitted(arena, 126, 100.0);
    batcher.enqueue(arena, oldest);
    batcher.enqueue(arena, younger);

    const std::int32_t victim = batcher.shedVictim(arena);
    ASSERT_EQ(victim, static_cast<std::int32_t>(oldest));
    batcher.remove(arena, oldest);
    transition(arena[oldest], RequestState::Shed, 1.0);
    EXPECT_EQ(batcher.queued(), 1u);

    // A retried request re-enters admission and lands in the bucket.
    Request retried;
    retried.id = static_cast<RequestId>(arena.size());
    retried.residues = 126;
    retried.deadlineSeconds = 100.0;
    transition(retried, RequestState::Admitted, 1.0);
    transition(retried, RequestState::Batched, 1.0);
    transition(retried, RequestState::Running, 1.0);
    transition(retried, RequestState::Retried, 1.5);
    transition(retried, RequestState::Queued, 2.0);
    transition(retried, RequestState::Admitted, 2.0);
    arena.push_back(retried);
    batcher.enqueue(arena, retried.id);

    ClosedBatch batch;
    ASSERT_TRUE(batcher.close(arena, 2.0, batch)); // full again
    ASSERT_EQ(batch.members.size(), 2u);
    EXPECT_EQ(batch.members[0], younger);
    EXPECT_EQ(batch.members[1], retried.id);
    EXPECT_TRUE(batch.expired.empty());
    EXPECT_EQ(arena[retried.id].attempts, 1u);
    EXPECT_EQ(arena[oldest].state, RequestState::Shed);
}

TEST_F(ServeBatcherTest, FullBucketBeatsUrgentBucket)
{
    ServeBatcher batcher(spec(2), model_);
    RequestArena arena;
    // Bucket 256 is urgent (tight deadline) but bucket 128 is full.
    const RequestId tight = admitted(arena, 200, model_.seconds(256, 1));
    const RequestId a = admitted(arena, 126, 100.0);
    const RequestId b = admitted(arena, 126, 100.0);
    batcher.enqueue(arena, tight);
    batcher.enqueue(arena, a);
    batcher.enqueue(arena, b);
    ClosedBatch batch;
    ASSERT_TRUE(batcher.close(arena, 0.0, batch));
    EXPECT_EQ(batch.paddedLength, 128u);
    ASSERT_EQ(batch.members.size(), 2u);
    EXPECT_EQ(batcher.queued(), 1u);
}

TEST_F(ServeBatcherTest, OverloadHalvesEffectiveMaxBatch)
{
    ServeBatcherSpec s = spec(4);
    s.overloadDepth = 2;
    ServeBatcher batcher(s, model_);
    RequestArena arena;
    for (int i = 0; i < 3; ++i)
        batcher.enqueue(arena, admitted(arena, 126, 100.0));
    EXPECT_EQ(batcher.effectiveMaxBatch(), 2u); // 3 queued > depth 2
    ClosedBatch batch;
    ASSERT_TRUE(batcher.close(arena, 0.0, batch));
    EXPECT_EQ(batch.members.size(), 2u); // degraded batch bound
    EXPECT_EQ(batcher.effectiveMaxBatch(), 4u); // back under the mark
}

TEST_F(ServeBatcherTest, ShedVictimIsOldestArrivalAcrossBuckets)
{
    ServeBatcher batcher(spec(8), model_);
    RequestArena arena;
    // Bucket 256 holds the oldest arrival; bucket 128 is younger.
    const RequestId young = admitted(arena, 126, 100.0, 2.0);
    const RequestId old = admitted(arena, 250, 100.0, 1.0);
    const RequestId later = admitted(arena, 250, 100.0, 3.0);
    batcher.enqueue(arena, young);
    batcher.enqueue(arena, old);
    batcher.enqueue(arena, later);
    EXPECT_EQ(batcher.shedVictim(arena), static_cast<std::int32_t>(old));
    batcher.remove(arena, old);
    EXPECT_EQ(batcher.shedVictim(arena),
              static_cast<std::int32_t>(young));

    // Equal arrival times: the smaller bucket's front is the victim,
    // whichever was enqueued first.
    ServeBatcher tied(spec(8), model_);
    RequestArena tied_arena;
    const RequestId long_first = admitted(tied_arena, 250, 100.0, 5.0);
    const RequestId short_second = admitted(tied_arena, 126, 100.0, 5.0);
    tied.enqueue(tied_arena, long_first);
    tied.enqueue(tied_arena, short_second);
    EXPECT_EQ(tied.shedVictim(tied_arena),
              static_cast<std::int32_t>(short_second));
}

TEST_F(ServeBatcherTest, NextCloseTracksOldestDeadline)
{
    ServeBatcher batcher(spec(8), model_);
    RequestArena arena;
    const RequestId id = admitted(arena, 126, 1.0);
    batcher.enqueue(arena, id);
    const double expected = 1.0 - model_.seconds(128, 1);
    EXPECT_DOUBLE_EQ(batcher.nextCloseSeconds(arena), expected);
}

TEST_F(ServeBatcherTest, ServiceModelMemoizes)
{
    const double first = model_.seconds(128, 2);
    const std::size_t cached = model_.cachedShapes();
    EXPECT_DOUBLE_EQ(model_.seconds(128, 2), first);
    EXPECT_EQ(model_.cachedShapes(), cached);
    EXPECT_GT(model_.capacityPerSecond(128, 2, 4), 0.0);
}

TEST_F(ServeBatcherTest, DeathOnBadSpecOrState)
{
    ServeBatcherSpec empty;
    empty.buckets.clear();
    EXPECT_EXIT(empty.validate(), testing::ExitedWithCode(1),
                "no length buckets");
    ServeBatcherSpec unsorted;
    unsorted.buckets = { 128, 128 };
    EXPECT_EXIT(unsorted.validate(), testing::ExitedWithCode(1),
                "strictly increasing");
    ServeBatcherSpec zero;
    zero.maxBatch = 0;
    EXPECT_EXIT(zero.validate(), testing::ExitedWithCode(1),
                "zero max batch");

    ServeBatcher batcher(spec(), model_);
    RequestArena arena(1);
    arena[0].residues = 126; // still QUEUED
    EXPECT_DEATH(batcher.enqueue(arena, 0),
                 "batcher enqueue of a QUEUED request");
}

} // namespace
} // namespace prose
