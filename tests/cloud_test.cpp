// Tests for the cloud layer: VR classroom layout, interest fan-out, the
// origin cloud server, regional relays, and VR clients end to end.

#include <gtest/gtest.h>

#include <cmath>

#include "cloud/cloud_server.hpp"
#include "cloud/relay.hpp"
#include "cloud/vr_client.hpp"
#include "cloud/vr_layout.hpp"
#include "common/hash.hpp"

namespace mvc::cloud {
namespace {

// ------------------------------------------------------------------ VrLayout

TEST(VrLayoutTest, RingCapacitiesGrow) {
    const VrLayout layout;
    EXPECT_EQ(layout.capacity(1), 12u);
    EXPECT_EQ(layout.capacity(2), 12u + 18u);
    EXPECT_EQ(layout.ring_of(0), 0u);
    EXPECT_EQ(layout.ring_of(11), 0u);
    EXPECT_EQ(layout.ring_of(12), 1u);
}

TEST(VrLayoutTest, SeatsSitOnTheirRingRadius) {
    const VrLayout layout;
    for (const std::size_t i : {0u, 5u, 11u, 12u, 29u, 30u, 100u}) {
        const math::Pose p = layout.seat_pose(i);
        const double r = std::hypot(p.position.x, p.position.z);
        const std::size_t ring = layout.ring_of(i);
        EXPECT_NEAR(r, 4.0 + 1.6 * static_cast<double>(ring), 1e-9) << "seat " << i;
    }
}

TEST(VrLayoutTest, SeatsFaceTheStage) {
    const VrLayout layout;
    for (std::size_t i = 0; i < 40; ++i) {
        const math::Pose p = layout.seat_pose(i);
        const math::Vec3 fwd = p.orientation.rotate({0, 0, -1});
        const math::Vec3 to_stage = (-p.position).normalized();
        EXPECT_GT(fwd.dot(to_stage), 0.99) << "seat " << i;
    }
}

TEST(VrLayoutTest, SeatsDistinct) {
    const VrLayout layout;
    for (std::size_t i = 0; i < 30; ++i) {
        for (std::size_t j = i + 1; j < 30; ++j) {
            EXPECT_GT(layout.seat_pose(i).position.distance_to(layout.seat_pose(j).position),
                      0.1);
        }
    }
}

TEST(VrLayoutTest, InvalidParamsThrow) {
    VrLayoutParams bad;
    bad.first_ring_seats = 0;
    EXPECT_THROW(VrLayout{bad}, std::invalid_argument);
}

// ------------------------------------------------------------ InterestFanout

TEST(FanoutTest, DisabledSendsToEveryoneExceptSelf) {
    sim::Simulator sim;
    InterestFanout fanout{{}, false};
    fanout.add_viewer({net::NodeId{1}, ParticipantId{1}, {0, 0, 0}});
    fanout.add_viewer({net::NodeId{2}, ParticipantId{2}, {100, 0, 0}});
    fanout.upsert_entity(ParticipantId{1}, {0, 0, 0});
    std::vector<net::NodeId> targets;
    fanout.due_targets_into(ParticipantId{1}, sim.now(), targets);
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets[0], net::NodeId{2});
}

TEST(FanoutTest, AoiCullsDistantViewers) {
    sim::Simulator sim;
    InterestFanout fanout;  // default policy: nothing beyond 80 m
    fanout.add_viewer({net::NodeId{1}, ParticipantId{1}, {0, 0, 0}});
    fanout.add_viewer({net::NodeId{2}, ParticipantId{2}, {500, 0, 0}});
    fanout.upsert_entity(ParticipantId{3}, {0, 0, 0});
    std::vector<net::NodeId> targets;
    fanout.due_targets_into(ParticipantId{3}, sim.now(), targets);
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets[0], net::NodeId{1});
    EXPECT_GT(fanout.suppressed_by_aoi(), 0u);
}

TEST(FanoutTest, RateLimitPerTier) {
    sim::Simulator sim;
    InterestFanout fanout;
    fanout.add_viewer({net::NodeId{1}, ParticipantId{1}, {0, 0, 0}});
    fanout.upsert_entity(ParticipantId{2}, {2, 0, 0});  // High tier: 60 Hz
    int sent = 0;
    std::vector<net::NodeId> targets;
    // Offer updates at 600 Hz for one second: the 60 Hz tier must clamp.
    for (int i = 0; i < 600; ++i) {
        sim.schedule_at(sim::Time::ms(i / 0.6), [&] {
            fanout.due_targets_into(ParticipantId{2}, sim.now(), targets);
            sent += static_cast<int>(targets.size());
        });
    }
    sim.run_all();
    EXPECT_LE(sent, 62);
    EXPECT_GE(sent, 55);
    EXPECT_GT(fanout.suppressed_by_rate(), 0u);
}

TEST(FanoutTest, FarTierSlowerThanNearTier) {
    sim::Simulator sim;
    InterestFanout fanout;
    fanout.add_viewer({net::NodeId{1}, ParticipantId{1}, {0, 0, 0}});
    fanout.upsert_entity(ParticipantId{2}, {2, 0, 0});    // near: 60 Hz tier
    fanout.upsert_entity(ParticipantId{3}, {50, 0, 0});   // far: 5 Hz tier
    int near_sent = 0;
    int far_sent = 0;
    std::vector<net::NodeId> targets;
    for (int i = 0; i < 1000; ++i) {
        sim.schedule_at(sim::Time::ms(i * 1.0), [&] {
            fanout.due_targets_into(ParticipantId{2}, sim.now(), targets);
            near_sent += static_cast<int>(targets.size());
            fanout.due_targets_into(ParticipantId{3}, sim.now(), targets);
            far_sent += static_cast<int>(targets.size());
        });
    }
    sim.run_all();
    EXPECT_GT(near_sent, far_sent * 5);
}

TEST(FanoutTest, RemoveViewerStopsDelivery) {
    sim::Simulator sim;
    InterestFanout fanout{{}, false};
    fanout.add_viewer({net::NodeId{1}, ParticipantId{1}, {0, 0, 0}});
    fanout.remove_viewer(net::NodeId{1});
    std::vector<net::NodeId> targets;
    fanout.due_targets_into(ParticipantId{2}, sim.now(), targets);
    EXPECT_TRUE(targets.empty());
    EXPECT_EQ(fanout.viewer_count(), 0u);
}

// --------------------------------------------------------------- CloudServer

struct CloudFixture : ::testing::Test {
    sim::Simulator sim{81};
    net::Network net{sim};
    net::WanTopology wan;
    net::NodeId cloud_node = net.add_node("cloud", net::Region::HongKong);
    CloudServerConfig config = make_config();
    CloudServer cloud{net, cloud_node, config};

    static CloudServerConfig make_config() {
        CloudServerConfig c;
        c.room = ClassroomId{9};
        return c;
    }

    std::unique_ptr<VrClient> make_client(std::uint32_t id, net::Region region,
                                          bool lightweight = false) {
        const net::NodeId node =
            net.add_node("client-" + std::to_string(id), region);
        net.connect_wan(node, cloud_node, wan);
        VrClientConfig vc;
        vc.name = "c" + std::to_string(id);
        vc.room = ClassroomId{9};
        vc.lightweight = lightweight;
        auto client = std::make_unique<VrClient>(net, node, ParticipantId{id}, vc);
        const auto seat = cloud.attach_client(node, ParticipantId{id});
        EXPECT_TRUE(seat.has_value());
        client->join(cloud_node, *seat);
        return client;
    }
};

TEST_F(CloudFixture, ClientsSeeEachOther) {
    auto c1 = make_client(1, net::Region::Seoul);
    auto c2 = make_client(2, net::Region::Tokyo);
    sim.run_until(sim::Time::seconds(5));
    EXPECT_GT(c1->updates_received(), 0u);
    EXPECT_GT(c2->updates_received(), 0u);
    EXPECT_TRUE(c1->view_of(ParticipantId{2}, sim.now()).has_value());
    EXPECT_TRUE(c2->view_of(ParticipantId{1}, sim.now()).has_value());
    EXPECT_FALSE(c1->view_of(ParticipantId{1}, sim.now()).has_value());  // not self
}

TEST_F(CloudFixture, ReplicatedViewTracksRemoteTruth) {
    auto c1 = make_client(1, net::Region::Seoul);
    auto c2 = make_client(2, net::Region::Tokyo);
    sim.run_until(sim::Time::seconds(5));
    const auto view = c2->view_of(ParticipantId{1}, sim.now());
    ASSERT_TRUE(view.has_value());
    // Seoul->HK->Tokyo ≈ 43 ms + playout: the replica lags but stays close
    // to where client 1's avatar actually is (idle sway, tiny velocity).
    const double err =
        view->root.pose.position.distance_to(c1->true_state().root.pose.position);
    EXPECT_LT(err, 0.10);
}

TEST_F(CloudFixture, EndToEndLatencyScalesWithDistance) {
    auto c1 = make_client(1, net::Region::Seoul);
    auto c2 = make_client(2, net::Region::SaoPaulo);
    sim.run_until(sim::Time::seconds(5));
    const auto& series = net.metrics().series("cloud.e2e_ms");
    ASSERT_GT(series.count(), 0u);
    // One-way Seoul->HK (18) + HK->SaoPaulo (160) dominates.
    EXPECT_GT(series.mean(), 100.0);
    EXPECT_LT(series.mean(), 400.0);
}

TEST_F(CloudFixture, CapacityEnforced) {
    CloudServerConfig small = make_config();
    small.capacity = 1;
    const net::NodeId node = net.add_node("small", net::Region::HongKong);
    CloudServer tiny{net, node, small};
    EXPECT_TRUE(tiny.attach_client(net::NodeId{50}, ParticipantId{50}).has_value());
    EXPECT_FALSE(tiny.attach_client(net::NodeId{51}, ParticipantId{51}).has_value());
}

TEST_F(CloudFixture, DetachStopsForwarding) {
    auto c1 = make_client(1, net::Region::Seoul);
    auto c2 = make_client(2, net::Region::Tokyo);
    sim.run_until(sim::Time::seconds(2));
    const std::uint64_t before = c2->updates_received();
    cloud.detach_client(c2->node());
    sim.run_until(sim::Time::seconds(4));
    EXPECT_LE(c2->updates_received(), before + 2);  // in-flight slack
}

TEST_F(CloudFixture, EgressAccounted) {
    auto c1 = make_client(1, net::Region::Seoul);
    auto c2 = make_client(2, net::Region::Tokyo);
    sim.run_until(sim::Time::seconds(2));
    EXPECT_GT(cloud.messages_in(), 0u);
    EXPECT_GT(cloud.messages_out(), 0u);
    EXPECT_GT(cloud.egress_bytes(), 0u);
}

TEST_F(CloudFixture, PlaceEntityIsStable) {
    const math::Pose p1 = cloud.place_entity(ParticipantId{70});
    const math::Pose p2 = cloud.place_entity(ParticipantId{70});
    EXPECT_TRUE(math::approx_equal(p1.position, p2.position));
    EXPECT_TRUE(cloud.seat_of(ParticipantId{70}).has_value());
}

// ------------------------------------------------------------- RegionalMesh

struct MeshFixture : CloudFixture {
    RegionalMesh mesh{net, wan, cloud};

    std::unique_ptr<VrClient> make_mesh_client(std::uint32_t id, net::Region region) {
        const net::NodeId node = net.add_node("mc-" + std::to_string(id), region);
        RelayServer& relay = mesh.relay_for(region);
        net.connect_wan(node, relay.node(), wan);
        VrClientConfig vc;
        vc.name = "mc" + std::to_string(id);
        vc.room = ClassroomId{9};
        vc.latency_metric = "mesh.e2e_ms";
        auto client = std::make_unique<VrClient>(net, node, ParticipantId{id}, vc);
        const math::Pose seat = mesh.attach_client(node, ParticipantId{id}, region);
        client->join(relay.node(), seat);
        return client;
    }
};

TEST_F(MeshFixture, RelaysCreatedPerRegion) {
    auto c1 = make_mesh_client(1, net::Region::Boston);
    auto c2 = make_mesh_client(2, net::Region::Boston);
    auto c3 = make_mesh_client(3, net::Region::Seoul);
    EXPECT_EQ(mesh.relay_count(), 2u);
    EXPECT_TRUE(mesh.has_relay(net::Region::Boston));
    EXPECT_TRUE(mesh.has_relay(net::Region::Seoul));
    EXPECT_FALSE(mesh.has_relay(net::Region::London));
}

TEST_F(MeshFixture, SameRegionPairGetsLocalLatency) {
    auto c1 = make_mesh_client(1, net::Region::Boston);
    auto c2 = make_mesh_client(2, net::Region::Boston);
    sim.run_until(sim::Time::seconds(5));
    const auto& series = net.metrics().series("mesh.e2e_ms");
    ASSERT_GT(series.count(), 0u);
    // Boston<->Boston through the local relay: a few ms, not a 210 ms
    // HK round trip.
    EXPECT_LT(series.median(), 30.0);
}

TEST_F(MeshFixture, CrossRegionStillFlowsThroughOrigin) {
    auto c1 = make_mesh_client(1, net::Region::Boston);
    auto c3 = make_mesh_client(3, net::Region::Seoul);
    sim.run_until(sim::Time::seconds(5));
    EXPECT_GT(c1->updates_received(), 0u);
    EXPECT_GT(c3->updates_received(), 0u);
    EXPECT_TRUE(c1->view_of(ParticipantId{3}, sim.now()).has_value());
}

TEST_F(MeshFixture, RelayEgressCounted) {
    auto c1 = make_mesh_client(1, net::Region::Boston);
    auto c2 = make_mesh_client(2, net::Region::Boston);
    sim.run_until(sim::Time::seconds(2));
    EXPECT_GT(mesh.total_relay_egress(), 0u);
}

// ------------------------------------------------------------- egress golden
//
// Pins the avatar egress of an origin cloud and two regional relays packet
// by packet: every avatar and avatar-batch send, as (time, src, dst, flow,
// size), folded in send order into one digest, plus the servers' egress
// counters. The constants were taken from a run of the code before the
// servers shared one egress pipeline; any change to what leaves the nodes,
// to when, or in which order, moves them.

/// Folds every avatar-flow packet, in the order it is put on a link.
class AvatarSendTap final : public net::PacketTap {
public:
    void on_send(const net::Packet& p, net::Priority) override {
        if (p.flow != sync::kAvatarFlow && p.flow != sync::kAvatarBatchFlow) return;
        ++packets;
        common::Hash64 h;
        h.i64(p.sent_at.nanos()).u32(p.src).u32(p.dst).str(p.flow).size(p.size_bytes);
        digest = common::mix64(digest ^ h.digest());
    }
    std::uint64_t packets{0};
    std::uint64_t digest{0};
};

enum class EgressMode { PerUpdate, Batched, Aggregated };

struct EgressRun {
    std::uint64_t packets{0};
    std::uint64_t send_digest{0};
    std::uint64_t cloud_out{0};
    std::uint64_t cloud_bytes{0};
    std::uint64_t cloud_state{0};
    std::uint64_t relay_out{0};
    std::uint64_t relay_bytes{0};
};

/// Three clients on the cloud (one leaves at 1.5 s), two per relay in
/// Boston and London, a peer server, and an edge that streams one avatar
/// through the cloud with a failover relay_to naming the peer.
EgressRun run_egress(EgressMode mode) {
    sim::Simulator sim{2024};
    net::Network net{sim};
    net::WanTopology wan;
    AvatarSendTap tap;
    net.set_tap(&tap);

    CloudServerConfig cc;
    cc.room = ClassroomId{9};
    RelayConfig rc;
    if (mode == EgressMode::Batched) {
        cc.batch_interval = sim::Time::ms(20);
        rc.batch_interval = sim::Time::ms(20);
    } else if (mode == EgressMode::Aggregated) {
        cc.aggregate_interval = sim::Time::ms(50);
        rc.aggregate_interval = sim::Time::ms(50);
    }
    const net::NodeId cloud_node = net.add_node("cloud", net::Region::HongKong);
    CloudServer cloud{net, cloud_node, cc};
    RegionalMesh mesh{net, wan, cloud, rc};

    const net::NodeId peer = net.add_node("peer", net::Region::HongKong);
    net.connect_wan(peer, cloud_node, wan);
    cloud.add_peer(peer);

    std::vector<std::unique_ptr<VrClient>> clients;
    const auto client = [&](std::uint32_t id, net::Region region, bool on_mesh) {
        const net::NodeId node = net.add_node("c" + std::to_string(id), region);
        VrClientConfig vc;
        vc.name = "c" + std::to_string(id);
        vc.room = ClassroomId{9};
        vc.lightweight = true;
        auto c = std::make_unique<VrClient>(net, node, ParticipantId{id}, vc);
        if (on_mesh) {
            const net::NodeId relay = mesh.relay_for(region).node();
            net.connect_wan(node, relay, wan);
            c->join(relay, mesh.attach_client(node, ParticipantId{id}, region));
        } else {
            net.connect_wan(node, cloud_node, wan);
            const auto seat = cloud.attach_client(node, ParticipantId{id});
            c->join(cloud_node, *seat);
        }
        clients.push_back(std::move(c));
    };
    client(1, net::Region::Seoul, false);
    client(2, net::Region::Tokyo, false);
    client(3, net::Region::HongKong, false);
    client(11, net::Region::Boston, true);
    client(12, net::Region::Boston, true);
    client(21, net::Region::London, true);
    client(22, net::Region::London, true);

    const net::NodeId edge = net.add_node("edge", net::Region::HongKong);
    net.connect_wan(edge, cloud_node, wan);
    cloud.place_entity(ParticipantId{100});
    net::Channel edge_tx = net.open_channel(
        {.src = edge, .flow = std::string{sync::kAvatarFlow}});
    std::uint32_t seq = 0;
    sim.schedule_every(sim::Time::ms(33), [&] {
        sync::AvatarWire w{ParticipantId{100}, ClassroomId{9}, seq % 10 == 0,
                           std::vector<std::uint8_t>(24 + seq % 40, 0x5A), sim.now(), {}};
        w.seq = ++seq;
        if (seq % 3 == 0) w.relay_to.push_back(peer);
        const std::size_t size = w.wire_bytes();
        edge_tx.send_to(cloud_node, size, std::move(w));
    });
    sim.schedule_at(sim::Time::seconds(1.5), [&] {
        clients[2]->leave();
        cloud.detach_client(clients[2]->node());
    });

    sim.run_until(sim::Time::seconds(3));
    net.set_tap(nullptr);

    EgressRun r;
    r.packets = tap.packets;
    r.send_digest = tap.digest;
    r.cloud_out = cloud.messages_out();
    r.cloud_bytes = cloud.egress_bytes();
    r.cloud_state = cloud.state_digest();
    for (const net::Region region : {net::Region::Boston, net::Region::London}) {
        r.relay_out += mesh.relay_for(region).messages_out();
        r.relay_bytes += mesh.relay_for(region).egress_bytes();
    }
    return r;
}

TEST(EgressGoldenTest, PerUpdateFanout) {
    const EgressRun r = run_egress(EgressMode::PerUpdate);
    EXPECT_EQ(r.packets, 1432u);
    EXPECT_EQ(r.send_digest, 16002194879166549967ULL);
    EXPECT_EQ(r.cloud_out, 747u);
    EXPECT_EQ(r.cloud_bytes, 42792u);
    EXPECT_EQ(r.cloud_state, 1105619778245620412ULL);
    EXPECT_EQ(r.relay_out, 544u);
    EXPECT_EQ(r.relay_bytes, 32164u);
}

TEST(EgressGoldenTest, BatchedServerEgress) {
    const EgressRun r = run_egress(EgressMode::Batched);
    EXPECT_EQ(r.packets, 1307u);
    EXPECT_EQ(r.send_digest, 15327746999159515132ULL);
    EXPECT_EQ(r.cloud_out, 747u);
    EXPECT_EQ(r.cloud_bytes, 42792u);
    EXPECT_EQ(r.cloud_state, 1105619778245620412ULL);
    EXPECT_EQ(r.relay_out, 544u);
    EXPECT_EQ(r.relay_bytes, 32164u);
}

TEST(EgressGoldenTest, AggregatedViewerEgress) {
    const EgressRun r = run_egress(EgressMode::Aggregated);
    EXPECT_EQ(r.packets, 877u);
    EXPECT_EQ(r.send_digest, 2438880579947487894ULL);
    EXPECT_EQ(r.cloud_out, 416u);
    EXPECT_EQ(r.cloud_bytes, 23654u);
    EXPECT_EQ(r.cloud_state, 1185401737621455294ULL);
    EXPECT_EQ(r.relay_out, 30u);
    EXPECT_EQ(r.relay_bytes, 2248u);
}

}  // namespace
}  // namespace mvc::cloud
