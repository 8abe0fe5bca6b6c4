// Tests for the network substrate: links, WiFi contention, WAN topology,
// the node fabric, and the transports (reliable ARQ channel, token bucket).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "net/wifi.hpp"

namespace mvc::net {
namespace {

Packet make_packet(std::size_t bytes) {
    Packet p;
    p.size_bytes = bytes;
    return p;
}

// ---------------------------------------------------------------------- Link

TEST(LinkTest, DeliversAfterPropagationDelay) {
    sim::Simulator sim;
    LinkParams params;
    params.latency = sim::Time::ms(10);
    Link link{sim, "l", params};
    const LinkAdmission a = link.admit(100 + kHeaderBytes);
    EXPECT_EQ(a.status, LinkAdmission::Status::Accepted);
    EXPECT_EQ(a.arrival, sim::Time::ms(10));
    EXPECT_EQ(link.bytes_sent(), 100 + kHeaderBytes);
}

TEST(LinkTest, SerializationDelayFromBandwidth) {
    sim::Simulator sim;
    LinkParams params;
    params.latency = sim::Time::zero();
    params.bandwidth_bps = 8e6;  // 1 byte per microsecond
    Link link{sim, "l", params};
    const std::size_t payload = 1000;
    const LinkAdmission a = link.admit(payload + kHeaderBytes);
    ASSERT_EQ(a.status, LinkAdmission::Status::Accepted);
    const double expected_us = static_cast<double>(payload + kHeaderBytes);
    EXPECT_NEAR(a.arrival.to_us(), expected_us, 1.0);
}

TEST(LinkTest, BackToBackPacketsQueueBehindEachOther) {
    sim::Simulator sim;
    LinkParams params;
    params.latency = sim::Time::zero();
    params.bandwidth_bps = 8e6;
    Link link{sim, "l", params};
    std::vector<double> arrivals;
    for (int i = 0; i < 3; ++i) {
        const LinkAdmission a = link.admit(1000);
        ASSERT_EQ(a.status, LinkAdmission::Status::Accepted);
        arrivals.push_back(a.arrival.to_us());
    }
    EXPECT_NEAR(arrivals[0], 1000.0, 1.0);
    EXPECT_NEAR(arrivals[1], 2000.0, 1.0);
    EXPECT_NEAR(arrivals[2], 3000.0, 1.0);
}

TEST(LinkTest, QueueOverflowDrops) {
    sim::Simulator sim;
    LinkParams params;
    params.latency = sim::Time::zero();
    params.bandwidth_bps = 8e3;  // very slow
    params.queue_bytes = 2000;
    Link link{sim, "l", params};
    int accepted = 0;
    for (int i = 0; i < 10; ++i) {
        if (link.admit(500 + kHeaderBytes).status != LinkAdmission::Status::Rejected)
            ++accepted;
    }
    EXPECT_LT(accepted, 10);
    EXPECT_GT(link.dropped_queue(), 0u);
    EXPECT_EQ(link.dropped_queue() + static_cast<std::uint64_t>(accepted), 10u);
}

TEST(LinkTest, LossRateApproximatesParameter) {
    sim::Simulator sim{77};
    LinkParams params;
    params.loss = 0.2;
    Link link{sim, "lossy", params};
    int delivered = 0;
    for (int i = 0; i < 5000; ++i) {
        if (link.admit(10 + kHeaderBytes).status == LinkAdmission::Status::Accepted)
            ++delivered;
    }
    EXPECT_NEAR(delivered / 5000.0, 0.8, 0.03);
    EXPECT_EQ(link.lost() + static_cast<std::uint64_t>(delivered), 5000u);
}

TEST(LinkTest, JitterNeverMakesArrivalEarly) {
    sim::Simulator sim{3};
    LinkParams params;
    params.latency = sim::Time::ms(20);
    params.jitter = sim::Time::ms(5);
    params.spike_probability = 0.05;
    Link link{sim, "jittery", params};
    for (int i = 0; i < 500; ++i) {
        const LinkAdmission a = link.admit(10 + kHeaderBytes);
        ASSERT_EQ(a.status, LinkAdmission::Status::Accepted);
        EXPECT_GE(a.arrival.to_ms(), 20.0 - 1e-9);
    }
}

TEST(LinkTest, InfiniteBandwidthNoSerialization) {
    sim::Simulator sim;
    LinkParams params;
    params.latency = sim::Time::ms(1);
    params.bandwidth_bps = 0.0;
    Link link{sim, "fast", params};
    const LinkAdmission a = link.admit(1'000'000 + kHeaderBytes);
    ASSERT_EQ(a.status, LinkAdmission::Status::Accepted);
    EXPECT_EQ(a.arrival, sim::Time::ms(1));
}

// ---------------------------------------------------------------------- WiFi

TEST(WifiTest, DeliversAndCountsAirtime) {
    sim::Simulator sim;
    WifiParams params;
    params.per_try_loss = 0.0;
    WifiChannel wifi{sim, "room", params};
    const StationId s = wifi.add_station();
    int got = 0;
    wifi.send(s, make_packet(500), [&](Packet&&) { ++got; });
    sim.run_all();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(wifi.delivered(), 1u);
    EXPECT_EQ(wifi.lost(), 0u);
}

TEST(WifiTest, UnknownStationThrows) {
    sim::Simulator sim;
    WifiChannel wifi{sim, "room", {}};
    EXPECT_THROW(wifi.send(99, make_packet(10), [](Packet&&) {}), std::out_of_range);
}

TEST(WifiTest, RetriesConsumeAirtimeButStillDeliver) {
    sim::Simulator sim{5};
    WifiParams params;
    params.per_try_loss = 0.3;
    params.max_retries = 8;
    WifiChannel wifi{sim, "room", params};
    const StationId s = wifi.add_station();
    int got = 0;
    for (int i = 0; i < 2000; ++i) {
        wifi.send(s, make_packet(200), [&](Packet&&) { ++got; });
        sim.run_until(sim.now() + sim::Time::ms(2));
    }
    sim.run_all();
    EXPECT_GT(wifi.retries(), 0u);
    // With 8 retries at 30% per-try loss, effectively everything arrives.
    EXPECT_NEAR(got / 2000.0, 1.0, 0.01);
}

TEST(WifiTest, FrameLossAfterMaxRetries) {
    sim::Simulator sim{6};
    WifiParams params;
    params.per_try_loss = 0.5;
    params.max_retries = 1;
    WifiChannel wifi{sim, "room", params};
    const StationId s = wifi.add_station();
    int got = 0;
    for (int i = 0; i < 2000; ++i) {
        wifi.send(s, make_packet(100), [&](Packet&&) { ++got; });
        sim.run_until(sim.now() + sim::Time::ms(1));
    }
    sim.run_all();
    EXPECT_GT(wifi.lost(), 0u);
    // Delivery prob = 1 - 0.5^2 = 0.75.
    EXPECT_NEAR(got / 2000.0, 0.75, 0.05);
}

TEST(WifiTest, ContentionGrowsWithStations) {
    // Mean delivery delay with 40 saturating stations must exceed that of 2.
    const auto mean_delay = [](std::size_t stations) {
        sim::Simulator sim{9};
        WifiParams params;
        params.per_try_loss = 0.0;
        WifiChannel wifi{sim, "room", params};
        std::vector<StationId> ids;
        for (std::size_t i = 0; i < stations; ++i) ids.push_back(wifi.add_station());
        math::RunningStats delay;
        for (int round = 0; round < 50; ++round) {
            for (const StationId s : ids) {
                const sim::Time sent = sim.now();
                wifi.send(s, make_packet(800), [&, sent](Packet&&) {
                    delay.add((sim.now() - sent).to_ms());
                });
            }
            sim.run_until(sim.now() + sim::Time::ms(10));
        }
        sim.run_all();
        return delay.mean();
    };
    EXPECT_GT(mean_delay(40), mean_delay(2) * 2.0);
}

TEST(WifiTest, QueueOverflowRejectsAtSource) {
    sim::Simulator sim;
    WifiParams params;
    params.queue_bytes = 1000;
    WifiChannel wifi{sim, "room", params};
    const StationId s = wifi.add_station();
    bool saw_reject = false;
    for (int i = 0; i < 50; ++i) {
        if (!wifi.send(s, make_packet(400), [](Packet&&) {})) saw_reject = true;
    }
    EXPECT_TRUE(saw_reject);
    EXPECT_GT(wifi.dropped_queue(), 0u);
}

// ------------------------------------------------------------------ topology

TEST(TopologyTest, DelaysSymmetricAndPositive) {
    const WanTopology wan;
    for (const Region a : all_regions()) {
        for (const Region b : all_regions()) {
            EXPECT_EQ(wan.one_way_delay(a, b), wan.one_way_delay(b, a));
            EXPECT_GT(wan.one_way_delay(a, b), sim::Time::zero());
        }
    }
}

TEST(TopologyTest, IntraRegionIsFastest) {
    const WanTopology wan;
    for (const Region a : all_regions()) {
        for (const Region b : all_regions()) {
            if (a == b) continue;
            EXPECT_LT(wan.one_way_delay(a, a), wan.one_way_delay(a, b));
        }
    }
}

TEST(TopologyTest, CwbGzIsShortHop) {
    const WanTopology wan;
    EXPECT_LT(wan.one_way_delay(Region::HongKong, Region::Guangzhou), sim::Time::ms(10));
    EXPECT_GT(wan.one_way_delay(Region::HongKong, Region::Boston), sim::Time::ms(80));
}

TEST(TopologyTest, PathParamsScaleWithDistance) {
    const WanTopology wan;
    const LinkParams near = wan.path_params(Region::HongKong, Region::Guangzhou);
    const LinkParams far = wan.path_params(Region::HongKong, Region::Boston);
    EXPECT_LT(near.latency, far.latency);
    EXPECT_LT(near.jitter, far.jitter);
    EXPECT_LE(near.spike_probability, far.spike_probability);
}

TEST(TopologyTest, BestRegionForLocalClients) {
    const WanTopology wan;
    std::array<std::size_t, kRegionCount> clients{};
    clients[static_cast<std::size_t>(Region::Seoul)] = 100;
    EXPECT_EQ(wan.best_region_for(clients), Region::Seoul);
}

TEST(TopologyTest, BestRegionBalancesTwoClusters) {
    const WanTopology wan;
    std::array<std::size_t, kRegionCount> clients{};
    clients[static_cast<std::size_t>(Region::Boston)] = 10;
    clients[static_cast<std::size_t>(Region::London)] = 10;
    const Region best = wan.best_region_for(clients);
    // An Atlantic-adjacent region must win over Asia-Pacific ones.
    EXPECT_TRUE(best == Region::Boston || best == Region::London ||
                best == Region::Frankfurt);
}

TEST(TopologyTest, RegionNamesUnique) {
    std::set<std::string_view> names;
    for (const Region r : all_regions()) names.insert(region_name(r));
    EXPECT_EQ(names.size(), kRegionCount);
}

// ------------------------------------------------------------------- network

TEST(NetworkTest, SendDeliversToHandler) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    net.connect(a, b, LinkParams{});
    int got = 0;
    net.set_handler(b, [&](Packet&& p) {
        ++got;
        EXPECT_EQ(p.src, a);
        EXPECT_EQ(p.payload.get<int>(), 42);
    });
    EXPECT_TRUE(net.send(a, b, 100, "test", 42));
    sim.run_all();
    EXPECT_EQ(got, 1);
}

TEST(NetworkTest, NoRouteReturnsFalse) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    EXPECT_FALSE(net.send(a, b, 10, "x", {}));
    EXPECT_EQ(net.metrics().counter("net.no_route"), 1u);
}

TEST(NetworkTest, BidirectionalConnect) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::Seoul);
    net.connect(a, b, LinkParams{});
    EXPECT_TRUE(net.connected(a, b));
    EXPECT_TRUE(net.connected(b, a));
    EXPECT_NE(net.link(a, b), nullptr);
    EXPECT_NE(net.link(b, a), nullptr);
    EXPECT_EQ(net.link(a, a), nullptr);
}

TEST(NetworkTest, InvalidNodeThrows) {
    sim::Simulator sim;
    Network net{sim};
    EXPECT_THROW((void)net.region_of(NodeId{5}), std::out_of_range);
    EXPECT_THROW((void)net.region_of(kInvalidNode), std::out_of_range);
}

TEST(NetworkTest, WanConnectUsesRegionDelay) {
    sim::Simulator sim;
    Network net{sim};
    WanTopology wan;
    const NodeId a = net.add_node("hk", Region::HongKong);
    const NodeId b = net.add_node("bos", Region::Boston);
    net.connect_wan(a, b, wan);
    sim::Time arrival;
    net.set_handler(b, [&](Packet&&) { arrival = sim.now(); });
    net.send(a, b, 100, "x", {});
    sim.run_all();
    EXPECT_GE(arrival, sim::Time::ms(105));
}

TEST(NetworkTest, MetricsRecordFlows) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    net.connect(a, b, LinkParams{});
    net.set_handler(b, [](Packet&&) {});
    net.send(a, b, 500, "avatar", {});
    sim.run_all();
    EXPECT_EQ(net.metrics().counter("net.tx.avatar"), 1u);
    EXPECT_EQ(net.metrics().counter("net.rx.avatar"), 1u);
    EXPECT_EQ(net.metrics().counter("net.tx_bytes.avatar"), 500u + kHeaderBytes);
    EXPECT_EQ(net.metrics().series("net.latency_ms.avatar").count(), 1u);
}

TEST(NetworkTest, PacketToHandlerlessNodeCounted) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    net.connect(a, b, LinkParams{});
    net.send(a, b, 10, "x", {});
    sim.run_all();
    EXPECT_EQ(net.metrics().counter("net.dropped_no_handler"), 1u);
}

// ------------------------------------------------------------------- demux

TEST(DemuxTest, RoutesByFlow) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    net.connect(a, b, LinkParams{});
    PacketDemux demux{net, b};
    int video = 0;
    int audio = 0;
    demux.on_flow("video", [&](Packet&&) { ++video; });
    demux.on_flow("audio", [&](Packet&&) { ++audio; });
    net.send(a, b, 10, "video", {});
    net.send(a, b, 10, "audio", {});
    net.send(a, b, 10, "unknown", {});
    sim.run_all();
    EXPECT_EQ(video, 1);
    EXPECT_EQ(audio, 1);
    EXPECT_EQ(net.metrics().counter("demux.unmatched"), 1u);
}

// ---------------------------------------------------------------- reliable

struct ReliableFixture : ::testing::Test {
    sim::Simulator sim{21};
    Network net{sim};
    NodeId a = net.add_node("a", Region::HongKong);
    NodeId b = net.add_node("b", Region::Guangzhou);
    PacketDemux demux_a{net, a};
    PacketDemux demux_b{net, b};

    void connect(double loss) {
        LinkParams params;
        params.latency = sim::Time::ms(5);
        params.loss = loss;
        net.connect(a, b, params);
    }
};

TEST_F(ReliableFixture, DeliversInOrderWithoutLoss) {
    connect(0.0);
    ReliableChannel ch{net, demux_a, demux_b, "stream"};
    std::vector<int> got;
    ch.on_delivered([&](net::Payload payload, sim::Time, int) {
        got.push_back(payload.take<int>());
    });
    for (int i = 0; i < 20; ++i) ch.send(100, i);
    sim.run_all();
    ASSERT_EQ(got.size(), 20u);
    for (int i = 0; i < 20; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(ch.retransmissions(), 0u);
    EXPECT_EQ(ch.in_flight(), 0u);
}

TEST_F(ReliableFixture, RecoversEverythingUnderHeavyLoss) {
    connect(0.3);
    ReliableChannel ch{net, demux_a, demux_b, "stream"};
    std::vector<int> got;
    ch.on_delivered([&](net::Payload payload, sim::Time, int) {
        got.push_back(payload.take<int>());
    });
    for (int i = 0; i < 100; ++i) ch.send(100, i);
    sim.run_all();
    ASSERT_EQ(got.size(), 100u);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
    EXPECT_GT(ch.retransmissions(), 0u);
}

TEST_F(ReliableFixture, UnorderedModeDeliversEverythingOnce) {
    connect(0.25);
    ReliableOptions opts;
    opts.ordered = false;
    ReliableChannel ch{net, demux_a, demux_b, "stream", opts};
    std::multiset<int> got;
    ch.on_delivered([&](net::Payload payload, sim::Time, int) {
        got.insert(payload.take<int>());
    });
    for (int i = 0; i < 100; ++i) ch.send(100, i);
    sim.run_all();
    ASSERT_EQ(got.size(), 100u);  // exactly once each
    for (int i = 0; i < 100; ++i) EXPECT_EQ(got.count(i), 1u);
}

TEST_F(ReliableFixture, RttEstimateTracksPathRtt) {
    connect(0.0);
    ReliableChannel ch{net, demux_a, demux_b, "stream"};
    ch.on_delivered([](net::Payload, sim::Time, int) {});
    for (int i = 0; i < 30; ++i) {
        ch.send(100, i);
        sim.run_until(sim.now() + sim::Time::ms(50));
    }
    // Path RTT = 2 * 5 ms plus negligible overheads.
    EXPECT_NEAR(ch.smoothed_rtt_ms(), 10.0, 2.0);
    EXPECT_GE(ch.current_rto(), sim::Time::ms(20));  // rto_min floor
}

TEST_F(ReliableFixture, TransmissionCountReported) {
    connect(0.5);
    ReliableChannel ch{net, demux_a, demux_b, "stream"};
    int max_tx = 0;
    ch.on_delivered(
        [&](net::Payload, sim::Time, int tx) { max_tx = std::max(max_tx, tx); });
    for (int i = 0; i < 50; ++i) ch.send(100, i);
    sim.run_all();
    EXPECT_GT(max_tx, 1);
}

TEST(PayloadTest, HoldsAndReadsTypedValue) {
    Payload p{42};
    EXPECT_FALSE(p.empty());
    EXPECT_TRUE(p.holds<int>());
    EXPECT_FALSE(p.holds<double>());
    EXPECT_EQ(p.get<int>(), 42);
}

TEST(PayloadTest, TypeMismatchThrowsAtAccessSite) {
    Payload p{std::string{"hello"}};
    EXPECT_THROW((void)p.get<int>(), std::runtime_error);
    EXPECT_THROW((void)p.take<int>(), std::runtime_error);
    EXPECT_THROW((void)Payload{}.get<int>(), std::runtime_error);
}

TEST(PayloadTest, TakeMovesOutAndEmpties) {
    Payload p{std::vector<int>{1, 2, 3}};
    const auto v = p.take<std::vector<int>>();
    EXPECT_EQ(v.size(), 3u);
    EXPECT_TRUE(p.empty());
}

TEST(PayloadTest, CopiesShareUntilTaken) {
    Payload a{std::string{"shared"}};
    Payload b = a;
    // take from a copy must not disturb the other holder.
    EXPECT_EQ(b.take<std::string>(), "shared");
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(a.get<std::string>(), "shared");
}

TEST(NodeContextTest, BindGetUnbindAreTyped) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId n = net.add_node("n", Region::HongKong);

    int edge_object = 7;
    double other_object = 1.5;
    net.context(n).bind<int>(&edge_object);
    net.context(n).bind<double>(&other_object);

    EXPECT_TRUE(net.context(n).has<int>());
    ASSERT_NE(net.context(n).get<int>(), nullptr);
    EXPECT_EQ(*net.context(n).get<int>(), 7);
    EXPECT_EQ(*net.context(n).get<double>(), 1.5);
    // Unbound types resolve to nullptr, never to a reinterpreted slot.
    EXPECT_EQ(net.context(n).get<float>(), nullptr);

    net.context(n).unbind<int>();
    EXPECT_FALSE(net.context(n).has<int>());
    EXPECT_EQ(net.context(n).get<int>(), nullptr);
    EXPECT_TRUE(net.context(n).has<double>());
}

TEST(NetworkFaultTest, DownLinkDropsAndCounts) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    net.connect(a, b, {});
    int received = 0;
    net.set_handler(b, [&](Packet&&) { ++received; });

    net.set_link_up(a, b, false);
    EXPECT_FALSE(net.link_up(a, b));
    EXPECT_FALSE(net.send(a, b, 64, "avatar", 1));
    sim.run_all();
    EXPECT_EQ(received, 0);
    EXPECT_EQ(net.metrics().counter("net.link_failed"), 1u);
    EXPECT_EQ(net.metrics().counter("net.link_down_drop.avatar"), 1u);

    net.set_link_up(a, b, true);
    EXPECT_TRUE(net.send(a, b, 64, "avatar", 1));
    sim.run_all();
    EXPECT_EQ(received, 1);
    EXPECT_EQ(net.metrics().counter("net.link_restored"), 1u);
}

TEST(NetworkFaultTest, DownNodeDropsInFlightDeliveries) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    LinkParams slow;
    slow.latency = sim::Time::ms(50);
    net.connect(a, b, slow);
    int received = 0;
    net.set_handler(b, [&](Packet&&) { ++received; });

    // Packet leaves while b is up, but b crashes before it lands.
    EXPECT_TRUE(net.send(a, b, 64, "x", 1));
    sim.schedule_at(sim::Time::ms(10), [&] { net.set_node_up(b, false); });
    sim.run_until(sim::Time::seconds(1.0));
    EXPECT_EQ(received, 0);
    EXPECT_EQ(net.metrics().counter("net.node_down_drop"), 1u);
    EXPECT_EQ(net.metrics().counter("net.node_crashed"), 1u);
}

TEST(NetworkFaultTest, SetLinkUpOnUnconnectedPairThrows) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    EXPECT_THROW(net.set_link_up(a, b, false), std::invalid_argument);
}

// ----------------------------------------------------------------- channel

TEST(ChannelTest, ConnectedSendDeliversAndChargesPriorityCounter) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    net.connect(a, b, LinkParams{});
    PacketDemux demux_b{net, b};
    int got = 0;
    demux_b.on_flow("avatar", [&](Packet&&) { ++got; });

    Channel tx = net.open_channel(
        {.src = a, .dst = b, .flow = "avatar", .options = {.priority = Priority::Realtime}});
    EXPECT_TRUE(tx.send(100, {}));
    sim.run_all();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(net.metrics().counter("net.prio_bytes",
                                    {{"flow", "avatar"}, {"priority", "realtime"}}),
              100 + kHeaderBytes);
    // No traffic was booked under the other classes.
    EXPECT_EQ(net.metrics().counter("net.prio_bytes",
                                    {{"flow", "avatar"}, {"priority", "control"}}),
              0u);
}

TEST(ChannelTest, UnconnectedFanOutSharesOnePayloadBox) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId src = net.add_node("src", Region::HongKong);
    const NodeId d1 = net.add_node("d1", Region::HongKong);
    const NodeId d2 = net.add_node("d2", Region::HongKong);
    net.connect(src, d1, LinkParams{});
    net.connect(src, d2, LinkParams{});
    std::vector<std::string> got;
    net.set_handler(d1, [&](Packet&& p) { got.push_back(p.payload.get<std::string>()); });
    net.set_handler(d2, [&](Packet&& p) { got.push_back(p.payload.get<std::string>()); });

    Channel tx = net.open_channel({.src = src, .flow = "chat"});
    EXPECT_FALSE(tx.connected());
    EXPECT_THROW(tx.send(10, {}), std::logic_error);  // no bound destination
    const Payload shared{std::string{"hello"}};
    EXPECT_TRUE(tx.send_to(d1, 10, shared));
    EXPECT_TRUE(tx.send_to(d2, 10, shared));
    sim.run_all();
    EXPECT_EQ(got, (std::vector<std::string>{"hello", "hello"}));
}

TEST(ChannelTest, UnconnectedReliableIsRejected) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    EXPECT_THROW(
        net.open_channel({.src = a,
                          .flow = "stream",
                          .options = {.reliability = Reliability::Reliable}}),
        std::logic_error);
}

TEST(ChannelTest, ReliableModeRetransmitsAndForbidsSendTo) {
    sim::Simulator sim{21};
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::Guangzhou);
    LinkParams params;
    params.latency = sim::Time::ms(5);
    params.loss = 0.3;
    net.connect(a, b, params);
    PacketDemux demux_a{net, a};
    PacketDemux demux_b{net, b};

    Channel ch = net.open_channel(
        {.src_demux = &demux_a,
         .dst_demux = &demux_b,
         .flow = "stream",
         .options = {.reliability = Reliability::Reliable, .priority = Priority::Bulk}});
    ASSERT_NE(ch.arq(), nullptr);
    EXPECT_THROW(ch.send_to(b, 100, {}), std::logic_error);
    std::vector<int> delivered;
    ch.on_delivered([&](Payload payload, sim::Time, int) {
        delivered.push_back(payload.take<int>());
    });
    for (int i = 0; i < 50; ++i) EXPECT_TRUE(ch.send(100, i));
    sim.run_all();
    ASSERT_EQ(delivered.size(), 50u);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(delivered[static_cast<std::size_t>(i)], i);
    EXPECT_GT(ch.arq()->retransmissions(), 0u);
    // Application sends are booked once as bulk; retransmissions stay
    // internal to the ARQ layer.
    EXPECT_EQ(net.metrics().counter("net.prio_bytes",
                                    {{"flow", "stream"}, {"priority", "bulk"}}),
              50u * (100 + kHeaderBytes));
}

TEST(ChannelTest, BestEffortChannelsHaveNoDeliveryCallbacks) {
    sim::Simulator sim;
    Network net{sim};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    Channel tx = net.open_channel({.src = a, .dst = b, .flow = "avatar"});
    EXPECT_EQ(tx.arq(), nullptr);
    EXPECT_THROW(tx.on_delivered([](Payload, sim::Time, int) {}), std::logic_error);
    EXPECT_THROW(tx.on_failed([](Payload, sim::Time, int) {}), std::logic_error);
}

}  // namespace
}  // namespace mvc::net
