// Tests for the sharded parallel engine: ShardSet epoch protocol (ordering,
// lookahead enforcement, thread-count independence) and the ShardedWorld
// fabric (proxy wiring, cross-shard delivery, deterministic merged metrics)
// and the RegionalDeployment built on it.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/regional_deployment.hpp"
#include "core/sharded_world.hpp"
#include "net/channel.hpp"
#include "net/transport.hpp"
#include "sim/shard.hpp"

namespace mvc {
namespace {

using sim::ShardSet;
using sim::Time;

// ------------------------------------------------------------------ ShardSet

TEST(ShardSetTest, RejectsDegenerateConfigurations) {
    EXPECT_THROW(ShardSet(0, 1, Time::ms(10)), std::invalid_argument);
    EXPECT_THROW(ShardSet(2, 1, Time::zero()), std::invalid_argument);
    EXPECT_THROW(ShardSet(2, 1, Time::ms(-5)), std::invalid_argument);
}

TEST(ShardSetTest, CrossShardPostDeliversAtItsTimestamp) {
    ShardSet shards{2, 7, Time::ms(10)};
    Time delivered_at = Time::zero();
    // Posted from the driving thread before the run; due one epoch out.
    shards.post(0, 1, Time::ms(10), [&] { delivered_at = shards.shard(1).now(); });
    shards.run_until(Time::ms(30));
    EXPECT_EQ(delivered_at, Time::ms(10));
    EXPECT_EQ(shards.cross_messages(), 1u);
    EXPECT_EQ(shards.lookahead_violations(), 0u);
}

TEST(ShardSetTest, ExchangeOrderedBySourceShardThenPostOrder) {
    ShardSet shards{3, 7, Time::ms(10)};
    std::vector<int> order;
    // All land in shard 2 at the same instant; the tie must break by
    // (source shard, post order), not by who posted "first" in wall time.
    shards.post(1, 2, Time::ms(10), [&] { order.push_back(10); });
    shards.post(1, 2, Time::ms(10), [&] { order.push_back(11); });
    shards.post(0, 2, Time::ms(10), [&] { order.push_back(0); });
    shards.run_until(Time::ms(20));
    EXPECT_EQ(order, (std::vector<int>{0, 10, 11}));
}

TEST(ShardSetTest, LookaheadViolationClampedToBoundaryAndCounted) {
    ShardSet shards{2, 7, Time::ms(10)};
    Time delivered_at = Time::zero();
    // Due *inside* the first epoch — illegal for a conservative engine. The
    // engine must flag it and clamp delivery to the epoch boundary.
    shards.post(0, 1, Time::ms(3), [&] { delivered_at = shards.shard(1).now(); });
    shards.run_until(Time::ms(20));
    EXPECT_EQ(shards.lookahead_violations(), 1u);
    EXPECT_EQ(delivered_at, Time::ms(10));
}

TEST(ShardSetTest, CancelledHeadDoesNotRunShardPastItsEpoch) {
    ShardSet shards{2, 7, Time::ms(5)};
    sim::Simulator& s0 = shards.shard(0);
    Time late_at = Time::zero();
    Time posted_at = Time::zero();
    // A cancelled event heads shard 0's queue inside the first epoch. Its
    // drop must not carry the shard on to the live event at 50 ms, or the
    // message due at 6 ms would be exchanged into that shard's past.
    const sim::EventHandle early = s0.schedule_at(Time::ms(1), [] {});
    s0.schedule_at(Time::ms(50), [&] { late_at = s0.now(); });
    s0.cancel(early);
    shards.post(1, 0, Time::ms(6), [&] { posted_at = s0.now(); });
    EXPECT_NO_THROW(shards.run_until(Time::ms(100)));
    EXPECT_EQ(posted_at, Time::ms(6));
    EXPECT_EQ(late_at, Time::ms(50));
    EXPECT_EQ(shards.lookahead_violations(), 0u);
}

TEST(ShardSetTest, EpochsAdvanceInLookaheadSteps) {
    ShardSet shards{2, 7, Time::ms(10)};
    shards.run_until(Time::ms(100));
    EXPECT_EQ(shards.epochs_run(), 10u);
    EXPECT_EQ(shards.now(), Time::ms(100));
}

TEST(ShardSetTest, RelayChainIsIdenticalForAnyThreadCount) {
    // A ping-pong workload: shard 0 posts into shard 1, whose handler posts
    // back, several generations deep. The executed-event trace must not
    // depend on how many worker threads ran the epochs.
    const auto run = [](std::size_t threads) {
        ShardSet shards{4, 7, Time::ms(5)};
        std::vector<std::string> trace;
        // Local event activity in every shard, so workers genuinely execute.
        for (std::size_t s = 0; s < 4; ++s) {
            shards.shard(s).schedule_every(Time::ms(1), [] {});
        }
        std::function<void(std::size_t, int)> hop = [&](std::size_t shard, int depth) {
            trace.push_back(std::to_string(shard) + "@" +
                            std::to_string(shards.shard(shard).now().to_us()));
            if (depth == 0) return;
            const std::size_t next = (shard + 1) % 4;
            shards.post(shard, next, shards.now() + Time::ms(10),
                        [&, next, depth] { hop(next, depth - 1); });
        };
        shards.post(0, 1, Time::ms(5), [&] { hop(1, 6); });
        shards.run_until(Time::ms(100), threads);
        EXPECT_EQ(shards.lookahead_violations(), 0u);
        return trace;
    };
    const std::vector<std::string> serial = run(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(4), serial);
    EXPECT_EQ(run(9), serial);  // more threads than shards: clamped, same result
}

// -------------------------------------------------------------- ShardedWorld

TEST(ShardedWorldTest, ProxyLookupThrowsWhenUnconnected) {
    core::ShardedWorld world{2, 7};
    const core::GlobalNode a = world.add_node(0, "a", net::Region::HongKong);
    const core::GlobalNode b = world.add_node(1, "b", net::Region::Tokyo);
    EXPECT_THROW((void)world.proxy_in(0, b), std::invalid_argument);
    world.connect_cross(a, b, net::LinkParams{});
    EXPECT_NE(world.proxy_in(0, b), net::kInvalidNode);
    EXPECT_NE(world.proxy_in(1, a), net::kInvalidNode);
}

TEST(ShardedWorldTest, CrossShardSendArrivesWithLinkLatencyAndProxySrc) {
    core::ShardedWorld world{2, 7};
    const core::GlobalNode a = world.add_node(0, "a", net::Region::HongKong);
    const core::GlobalNode b = world.add_node(1, "b", net::Region::Tokyo);
    net::LinkParams params;
    params.latency = sim::Time::ms(40);
    world.connect_cross(a, b, params);

    Time arrival = Time::zero();
    net::NodeId seen_src = net::kInvalidNode;
    world.network(1).set_handler(b.node, [&](net::Packet&& p) {
        arrival = world.simulator(1).now();
        seen_src = p.src;
    });
    world.simulator(0).schedule_at(Time::ms(1), [&] {
        world.network(0).send(a.node, world.proxy_in(0, b), 100, "test", {});
    });
    world.run_until(Time::ms(100));

    EXPECT_EQ(arrival, Time::ms(41));
    // In shard 1, the sender is addressed through its proxy there.
    EXPECT_EQ(seen_src, world.proxy_in(1, a));
    EXPECT_EQ(world.lookahead_violations(), 0u);
    EXPECT_EQ(world.lookahead(), Time::ms(40));
}

TEST(ShardedWorldTest, MergedMetricsByteIdenticalAcrossThreadCounts) {
    // Two shards trading periodic traffic both ways; the merged export —
    // counters, series, engine stats — must not depend on the thread count.
    const auto run = [](std::size_t threads) {
        core::ShardedWorld world{2, 7};
        const core::GlobalNode a = world.add_node(0, "a", net::Region::HongKong);
        const core::GlobalNode b = world.add_node(1, "b", net::Region::Tokyo);
        net::LinkParams params;
        params.latency = sim::Time::ms(10);
        params.jitter = sim::Time::ms(2);
        world.connect_cross(a, b, params);

        net::Channel a_tx = world.network(0).open_channel({.src = a.node, .flow = "chat"});
        net::Channel b_tx = world.network(1).open_channel({.src = b.node, .flow = "chat"});
        world.simulator(0).schedule_every(Time::ms(7), [&] {
            a_tx.send_to(world.proxy_in(0, b), 200, {});
        });
        world.simulator(1).schedule_every(Time::ms(11), [&] {
            b_tx.send_to(world.proxy_in(1, a), 300, {});
        });
        world.run_until(Time::seconds(1.0), threads);
        EXPECT_EQ(world.lookahead_violations(), 0u);
        return world.merged_metrics().to_json().dump(2);
    };
    const std::string serial = run(1);
    EXPECT_NE(serial.find("shard.epochs"), std::string::npos);
    EXPECT_NE(serial.find("shard.cross_messages"), std::string::npos);
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(3), serial);
}

TEST(ShardedWorldTest, RegionalDeploymentWiresClientsToTheirRegion) {
    const std::vector<net::Region> regions = {net::Region::Seoul, net::Region::Tokyo,
                                              net::Region::London};
    core::RegionalDeployment d{{.regions = regions, .clients = 12, .seed = 5}};
    const net::WanTopology wan;
    Time fastest = Time::seconds(1.0);  // the epoch: fastest origin<->region path
    for (std::size_t r = 0; r < regions.size(); ++r) {
        EXPECT_EQ(d.relay_nodes().at(r).shard, r + 1);
        EXPECT_EQ(d.relay(r).client_count(), 4u);
        fastest = std::min(fastest, wan.path_params(net::Region::HongKong, regions[r]).latency);
    }
    EXPECT_EQ(d.world().lookahead(), fastest);

    d.world().run_until(Time::seconds(1.0));
    // Each client hears its peers: same-region ones through its relay, the
    // rest through the origin from the other regions' shards.
    for (const auto& client : d.clients()) EXPECT_GT(client->updates_received(), 0u);
    EXPECT_GT(d.origin().messages_in(), 0u);
    EXPECT_GT(d.origin().messages_out(), 0u);
    EXPECT_EQ(d.world().lookahead_violations(), 0u);
}

}  // namespace
}  // namespace mvc
