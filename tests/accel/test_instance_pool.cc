/**
 * @file
 * Tests for the fleet instance pool shared by ServeSim and ProseSystem:
 * kill-time resolution, the next-event tie order, and the kill rule
 * (members that end before the kill complete, the rest drop).
 */

#include <gtest/gtest.h>

#include "accel/instance_pool.hh"
#include "fault/campaign.hh"

namespace prose {
namespace {

using Member = InstancePool::Member;
using Kind = InstancePool::EventKind;

TEST(InstancePool, DispatchBusiesUntilTheLatestMemberEnds)
{
    InstancePool pool(2);
    EXPECT_TRUE(pool.idle());
    EXPECT_EQ(pool.firstFree(), 0);
    pool.dispatch(0, { { 7, 2.0 }, { 8, 5.0 }, { 9, 3.0 } });
    EXPECT_FALSE(pool.idle());
    EXPECT_EQ(pool.firstFree(), 1);

    const InstancePool::Event event = pool.next();
    EXPECT_EQ(event.kind, Kind::Completion);
    EXPECT_EQ(event.seconds, 5.0);
    EXPECT_EQ(event.instance, 0u);
    pool.apply(event);
    ASSERT_EQ(pool.done().size(), 3u);
    EXPECT_EQ(pool.done()[1].id, 8u);
    EXPECT_TRUE(pool.dropped().empty());
    EXPECT_TRUE(pool.idle());
    EXPECT_EQ(pool.next().kind, Kind::None);
}

TEST(InstancePool, KillCompletesWhatEndedAndDropsTheRest)
{
    CampaignSpec spec;
    spec.instanceKills = { InstanceKill{ 1, 4.0 } };
    const FaultInjector injector(spec);
    InstancePool pool(2);
    pool.armKills(injector, 0, [](std::uint64_t) { return 0.0; });
    pool.dispatch(1, { { 0, 1.0 }, { 1, 4.0 }, { 2, 6.0 } });

    const InstancePool::Event event = pool.next();
    EXPECT_EQ(event.kind, Kind::Kill);
    EXPECT_EQ(event.seconds, 4.0);
    pool.apply(event);
    ASSERT_EQ(pool.done().size(), 1u);
    EXPECT_EQ(pool.done()[0].id, 0u);
    // A member ending exactly at the kill has not finished.
    ASSERT_EQ(pool.dropped().size(), 2u);
    EXPECT_EQ(pool.dropped()[0].id, 1u);
    EXPECT_EQ(pool.killed(), 1u);
    EXPECT_EQ(pool.alive(), std::vector<std::uint32_t>{ 0 });
    EXPECT_EQ(pool.next().kind, Kind::None);
}

TEST(InstancePool, TiesGoToKillsThenLowerInstances)
{
    CampaignSpec spec;
    spec.instanceKills = { InstanceKill{ 2, 3.0 }, InstanceKill{ 3, 3.0 } };
    const FaultInjector injector(spec);
    InstancePool pool(4);
    pool.armKills(injector, 0, [](std::uint64_t) { return 0.0; });
    pool.dispatch(0, { { 0, 3.0 } });
    pool.dispatch(1, { { 1, 3.0 } });

    std::vector<std::pair<Kind, std::uint32_t>> order;
    for (InstancePool::Event e = pool.next(); e.kind != Kind::None;
         e = pool.next()) {
        order.emplace_back(e.kind, e.instance);
        pool.apply(e);
    }
    const std::vector<std::pair<Kind, std::uint32_t>> expected{
        { Kind::Kill, 2 },
        { Kind::Kill, 3 },
        { Kind::Completion, 0 },
        { Kind::Completion, 1 },
    };
    EXPECT_EQ(order, expected);
}

TEST(InstancePool, ArrivalIndexedKillsResolveAgainstTheStream)
{
    const FaultInjector injector(CampaignSpec::parse(
        "kill_instance=0@#2 kill_instance=1@#5 kill_instance=2@#1"));
    InstancePool pool(3);
    // Request n arrives at n seconds; instance 1's index is past the
    // stream, so it never fires.
    pool.armKills(injector, 5,
                  [](std::uint64_t n) { return static_cast<double>(n); });
    InstancePool::Event event = pool.next();
    EXPECT_EQ(event.kind, Kind::Kill);
    EXPECT_EQ(event.instance, 2u);
    EXPECT_EQ(event.seconds, 1.0);
    pool.apply(event);
    event = pool.next();
    EXPECT_EQ(event.instance, 0u);
    EXPECT_EQ(event.seconds, 2.0);
    pool.apply(event);
    EXPECT_EQ(pool.next().kind, Kind::None);
    EXPECT_EQ(pool.alive(), std::vector<std::uint32_t>{ 1 });
}

} // namespace
} // namespace prose
