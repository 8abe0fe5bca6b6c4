// Fault-injection and resilience tests: FaultPlan scheduling/determinism,
// administrative link & node state, bounded ARQ retransmission, heartbeat
// failover/failback, the graceful-degradation hysteresis ladder, and the
// end-to-end edge failover path through the cloud relay.

#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "core/classroom.hpp"
#include "fault/degradation.hpp"
#include "fault/fault_plan.hpp"
#include "fault/heartbeat.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"

namespace mvc::fault {
namespace {

struct TwoNodes {
    sim::Simulator sim;
    net::Network net{sim};
    net::NodeId a{};
    net::NodeId b{};

    explicit TwoNodes(std::uint64_t seed = 1, net::LinkParams params = {}) : sim(seed) {
        a = net.add_node("a", net::Region::HongKong);
        b = net.add_node("b", net::Region::HongKong);
        net.connect(a, b, params);
    }
};

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, RandomizeIsDeterministicForSeed) {
    const auto build = [](std::uint64_t seed) {
        TwoNodes t{seed};
        FaultPlan plan{t.net};
        const std::array<std::pair<net::NodeId, net::NodeId>, 1> links{{{t.a, t.b}}};
        const std::array<net::NodeId, 2> nodes{t.a, t.b};
        FaultModel model;
        model.node_crashes_per_min = 0.5;
        plan.randomize(model, links, nodes, sim::Time::zero(),
                       sim::Time::seconds(600.0));
        return plan.to_string();
    };
    const std::string first = build(99);
    const std::string second = build(99);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    // A different seed draws a different schedule.
    EXPECT_NE(first, build(100));
}

TEST(FaultPlanTest, LinkOutageTakesLinkDownAndRestoresIt) {
    TwoNodes t;
    FaultPlan plan{t.net};
    plan.link_outage(t.a, t.b, sim::Time::seconds(1.0), sim::Time::seconds(2.0));
    plan.arm();

    t.sim.run_until(sim::Time::seconds(0.5));
    EXPECT_TRUE(t.net.link_up(t.a, t.b));
    t.sim.run_until(sim::Time::seconds(1.5));
    EXPECT_FALSE(t.net.link_up(t.a, t.b));
    EXPECT_FALSE(t.net.send(t.a, t.b, 100, "x", 1));
    t.sim.run_until(sim::Time::seconds(3.5));
    EXPECT_TRUE(t.net.link_up(t.a, t.b));
    EXPECT_TRUE(t.net.send(t.a, t.b, 100, "x", 1));
    EXPECT_EQ(plan.injected(), 2u);
}

TEST(FaultPlanTest, OverlappingBurstAndSpikeRestoreIndependently) {
    net::LinkParams base;
    base.latency = sim::Time::ms(10);
    base.loss = 0.01;
    TwoNodes t{1, base};

    FaultPlan plan{t.net};
    // Burst [1, 5), spike [2, 3): the spike ends while the burst is active.
    plan.loss_burst(t.a, t.b, sim::Time::seconds(1.0), sim::Time::seconds(4.0), 0.5);
    plan.latency_spike(t.a, t.b, sim::Time::seconds(2.0), sim::Time::seconds(1.0),
                       sim::Time::ms(100));
    plan.arm();

    t.sim.run_until(sim::Time::seconds(2.5));
    EXPECT_DOUBLE_EQ(t.net.link(t.a, t.b)->params().loss, 0.5);
    EXPECT_EQ(t.net.link(t.a, t.b)->params().latency, sim::Time::ms(110));
    t.sim.run_until(sim::Time::seconds(3.5));
    // Spike over: latency restored, burst loss still in force.
    EXPECT_EQ(t.net.link(t.a, t.b)->params().latency, sim::Time::ms(10));
    EXPECT_DOUBLE_EQ(t.net.link(t.a, t.b)->params().loss, 0.5);
    t.sim.run_until(sim::Time::seconds(5.5));
    EXPECT_DOUBLE_EQ(t.net.link(t.a, t.b)->params().loss, 0.01);
    EXPECT_EQ(t.net.link(t.a, t.b)->params().latency, sim::Time::ms(10));
}

TEST(FaultPlanTest, NodeCrashDropsTrafficBothWays) {
    TwoNodes t;
    FaultPlan plan{t.net};
    plan.node_outage(t.b, sim::Time::seconds(1.0), sim::Time::seconds(1.0));
    plan.arm();

    int received = 0;
    t.net.set_handler(t.b, [&](net::Packet&&) { ++received; });

    t.sim.run_until(sim::Time::seconds(1.5));
    EXPECT_FALSE(t.net.node_up(t.b));
    EXPECT_FALSE(t.net.send(t.a, t.b, 64, "x", 1));
    EXPECT_FALSE(t.net.send(t.b, t.a, 64, "x", 1));
    t.sim.run_until(sim::Time::seconds(2.5));
    EXPECT_TRUE(t.net.node_up(t.b));
    EXPECT_TRUE(t.net.send(t.a, t.b, 64, "x", 1));
    t.sim.run_until(sim::Time::seconds(3.0));
    EXPECT_EQ(received, 1);
}

TEST(FaultPlanTest, ArmTwiceThrows) {
    TwoNodes t;
    FaultPlan plan{t.net};
    plan.link_outage(t.a, t.b, sim::Time::seconds(1.0), sim::Time::seconds(1.0));
    plan.arm();
    EXPECT_THROW(plan.arm(), std::logic_error);
}

// ------------------------------------------------------------- bounded ARQ

TEST(ReliableChannelTest, GivesUpAfterMaxTransmissions) {
    TwoNodes t;
    net::PacketDemux src{t.net, t.a};
    net::PacketDemux dst{t.net, t.b};
    net::ReliableOptions opt;
    opt.rto_initial = sim::Time::ms(50);
    opt.rto_min = sim::Time::ms(50);
    opt.rto_max = sim::Time::ms(200);
    opt.max_transmissions = 4;
    net::ReliableChannel ch{t.net, src, dst, "data", opt};

    int delivered = 0;
    int failed_tx = 0;
    int failed_payload = 0;
    ch.on_delivered([&](net::Payload, sim::Time, int) { ++delivered; });
    ch.on_failed([&](net::Payload payload, sim::Time, int tx) {
        failed_tx = tx;
        failed_payload = payload.take<int>();
    });

    t.net.set_link_up(t.a, t.b, false);
    ch.send(256, 77);
    t.sim.run_until(sim::Time::seconds(10.0));

    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(ch.failed_count(), 1u);
    EXPECT_EQ(failed_tx, 4);
    EXPECT_EQ(failed_payload, 77);
    EXPECT_EQ(ch.in_flight(), 0u);
    EXPECT_EQ(t.net.metrics().counter("arq.failed", {{"flow", "data"}}), 1u);
}

TEST(ReliableChannelTest, BackoffIsCappedByRtoMax) {
    TwoNodes t;
    net::PacketDemux src{t.net, t.a};
    net::PacketDemux dst{t.net, t.b};
    net::ReliableOptions opt;
    opt.rto_initial = sim::Time::ms(100);
    opt.rto_min = sim::Time::ms(100);
    opt.rto_max = sim::Time::ms(200);
    opt.max_transmissions = 6;
    net::ReliableChannel ch{t.net, src, dst, "data", opt};

    sim::Time failed_at = sim::Time::zero();
    ch.on_failed([&](net::Payload, sim::Time, int) { failed_at = t.sim.now(); });

    t.net.set_link_up(t.a, t.b, false);
    ch.send(256, 1);
    t.sim.run_until(sim::Time::seconds(60.0));

    // Without the cap the exponential schedule would reach 100ms * 2^5 =
    // 3.2 s for the last wait alone; capped at 200 ms the five waits total
    // at most 1 s.
    EXPECT_GT(failed_at, sim::Time::zero());
    EXPECT_LE(failed_at, sim::Time::seconds(1.1));
}

TEST(ReliableChannelTest, RecoversWhenLinkComesBack) {
    TwoNodes t;
    net::PacketDemux src{t.net, t.a};
    net::PacketDemux dst{t.net, t.b};
    net::ReliableOptions opt;
    opt.rto_initial = sim::Time::ms(100);
    opt.rto_min = sim::Time::ms(50);
    net::ReliableChannel ch{t.net, src, dst, "data", opt};

    std::vector<int> got;
    ch.on_delivered([&](net::Payload p, sim::Time, int) { got.push_back(p.take<int>()); });

    t.net.set_link_up(t.a, t.b, false);
    ch.send(256, 5);
    t.sim.run_until(sim::Time::ms(300));
    t.net.set_link_up(t.a, t.b, true);
    t.sim.run_until(sim::Time::seconds(5.0));

    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 5);
    EXPECT_EQ(ch.failed_count(), 0u);
}

// --------------------------------------------------------------- heartbeat

struct HeartbeatPair {
    TwoNodes t;
    net::PacketDemux demux_a;
    net::PacketDemux demux_b;
    PathHealth health_a;  // a's inbound path from b, fed by b's probes
    HeartbeatMonitor mon_a;
    HeartbeatMonitor mon_b;

    explicit HeartbeatPair(HeartbeatParams params, net::LinkParams link = {})
        : t{1, link},
          demux_a{t.net, t.a},
          demux_b{t.net, t.b},
          mon_a{t.net, demux_a, params, "a"},
          mon_b{t.net, demux_b, params, "b"} {
        mon_a.watch(t.b, &health_a);
        mon_b.watch(t.a);
        mon_a.start();
        mon_b.start();
    }
};

HeartbeatParams fast_heartbeat() {
    HeartbeatParams p;
    p.enabled = true;
    p.interval = sim::Time::ms(50);
    p.timeout = sim::Time::ms(200);
    return p;
}

TEST(HeartbeatTest, PeersStayAliveOnHealthyLink) {
    HeartbeatPair hb{fast_heartbeat()};
    hb.t.sim.run_until(sim::Time::seconds(5.0));
    EXPECT_TRUE(hb.mon_a.alive(hb.t.b));
    EXPECT_TRUE(hb.mon_b.alive(hb.t.a));
    EXPECT_EQ(hb.mon_a.failovers(), 0u);
    EXPECT_EQ(hb.mon_b.failovers(), 0u);
}

TEST(HeartbeatTest, FailoverWithinTimeoutAndFailbackOnRecovery) {
    HeartbeatPair hb{fast_heartbeat()};
    std::vector<std::pair<net::NodeId, bool>> transitions;
    hb.mon_a.on_peer_state([&](net::NodeId peer, bool alive) {
        transitions.emplace_back(peer, alive);
    });

    hb.t.sim.run_until(sim::Time::seconds(2.0));
    hb.t.net.set_link_up(hb.t.a, hb.t.b, false);
    // Detection takes at most timeout + one sweep interval.
    hb.t.sim.run_until(sim::Time::seconds(2.0) + hb.mon_a.params().timeout +
                       2 * hb.mon_a.params().interval);
    EXPECT_FALSE(hb.mon_a.alive(hb.t.b));
    EXPECT_FALSE(hb.mon_b.alive(hb.t.a));
    EXPECT_EQ(hb.mon_a.failovers(), 1u);
    ASSERT_EQ(transitions.size(), 1u);
    EXPECT_EQ(transitions[0], (std::pair<net::NodeId, bool>{hb.t.b, false}));

    hb.t.net.set_link_up(hb.t.a, hb.t.b, true);
    hb.t.sim.run_until(hb.t.sim.now() + sim::Time::seconds(1.0));
    EXPECT_TRUE(hb.mon_a.alive(hb.t.b));
    EXPECT_EQ(hb.mon_a.failbacks(), 1u);
    ASSERT_EQ(transitions.size(), 2u);
    EXPECT_EQ(transitions[1], (std::pair<net::NodeId, bool>{hb.t.b, true}));
    // Dead peers do not pollute the congestion signal: the probes the
    // outage swallowed are not counted as loss once the peer is back. Run
    // one more loss window so the window holding the failback has closed.
    hb.t.sim.run_until(hb.t.sim.now() + sim::Time::seconds(1.0));
    EXPECT_DOUBLE_EQ(hb.health_a.loss(), 0.0);
    EXPECT_EQ(hb.health_a.lost(), 0u);
}

TEST(HeartbeatTest, SequenceGapsEstimateLinkLoss) {
    net::LinkParams lossy;
    lossy.loss = 0.3;
    HeartbeatParams params = fast_heartbeat();
    params.timeout = sim::Time::seconds(1.0);  // survive loss runs
    HeartbeatPair hb{params, lossy};
    hb.t.sim.run_until(sim::Time::seconds(30.0));
    EXPECT_TRUE(hb.mon_a.alive(hb.t.b));
    EXPECT_GT(hb.health_a.loss(), 0.1);
    EXPECT_LT(hb.health_a.loss(), 0.5);
    // Probes count toward loss only; the delay estimate is the media's.
    EXPECT_DOUBLE_EQ(hb.health_a.rtt_ms(), 0.0);
}

// Declaring a peer dead forgets only the probe baseline: a stream on the
// same path keeps its own, so a liveness flap in a loss burst does not wipe
// the burst's loss. (Streams that reroute rebaseline where they arrive.)
TEST(HeartbeatTest, DeathForgetsOnlyTheProbeBaseline) {
    HeartbeatPair hb{fast_heartbeat()};
    constexpr std::uint32_t kStream = 7;
    hb.t.sim.run_until(sim::Time::seconds(1.0));
    hb.health_a.observe(kStream, 1, hb.t.sim.now());
    hb.t.net.set_link_up(hb.t.a, hb.t.b, false);
    hb.t.sim.run_until(sim::Time::seconds(2.0));
    ASSERT_FALSE(hb.mon_a.alive(hb.t.b));
    hb.t.net.set_link_up(hb.t.a, hb.t.b, true);
    hb.t.sim.run_until(sim::Time::seconds(2.5));
    ASSERT_TRUE(hb.mon_a.alive(hb.t.b));
    hb.health_a.observe(kStream, 5, hb.t.sim.now());
    hb.t.sim.run_until(sim::Time::seconds(4.0));
    hb.health_a.roll(hb.t.sim.now());
    EXPECT_EQ(hb.health_a.lost(), 3u);  // seqs 2-4; none of the probes
}

// ------------------------------------------------------------- degradation

TEST(DegradationTest, StepsDownAfterHoldAndBackUpOnRecovery) {
    DegradationParams p;
    p.enter_loss = 0.10;
    p.exit_loss = 0.02;
    p.hold = sim::Time::seconds(1.0);
    DegradationPolicy policy{p};

    // Loss above enter but not yet held long enough: no change.
    EXPECT_FALSE(policy.update(0.2, sim::Time::seconds(0.0)));
    EXPECT_FALSE(policy.update(0.2, sim::Time::seconds(0.5)));
    EXPECT_EQ(policy.level(), 0);
    // Hold elapsed: one step down.
    EXPECT_TRUE(policy.update(0.2, sim::Time::seconds(1.0)));
    EXPECT_EQ(policy.level(), 1);
    EXPECT_DOUBLE_EQ(policy.rate_scale(), 0.5);
    EXPECT_DOUBLE_EQ(policy.threshold_scale(), 2.0);
    // Each further step needs its own hold.
    EXPECT_FALSE(policy.update(0.2, sim::Time::seconds(1.5)));
    EXPECT_TRUE(policy.update(0.2, sim::Time::seconds(2.0)));
    EXPECT_EQ(policy.level(), 2);

    // In-band loss resets both clocks; nothing happens.
    EXPECT_FALSE(policy.update(0.05, sim::Time::seconds(2.5)));
    EXPECT_FALSE(policy.update(0.05, sim::Time::seconds(9.0)));
    EXPECT_EQ(policy.level(), 2);

    // Sustained recovery steps back up one level per hold.
    EXPECT_FALSE(policy.update(0.0, sim::Time::seconds(10.0)));
    EXPECT_TRUE(policy.update(0.0, sim::Time::seconds(11.0)));
    EXPECT_EQ(policy.level(), 1);
    EXPECT_TRUE(policy.update(0.0, sim::Time::seconds(12.0)));
    EXPECT_EQ(policy.level(), 0);
    EXPECT_FALSE(policy.update(0.0, sim::Time::seconds(13.0)));
    EXPECT_EQ(policy.level(), 0);
}

TEST(DegradationTest, ZeroEnterRttDisablesDelayCriterion) {
    DegradationParams p;
    p.enter_loss = 0.10;
    p.exit_loss = 0.02;
    p.enter_rtt_ms = 0.0;  // delay-ignored mode
    p.exit_rtt_ms = 0.0;
    p.hold = sim::Time::seconds(1.0);
    DegradationPolicy policy{p};

    // Pathological delay with clean loss: the disabled criterion must never
    // fire, no matter how long it persists.
    for (int s = 0; s <= 10; ++s)
        EXPECT_FALSE(policy.update(0.0, 5000.0, sim::Time::seconds(s)));
    EXPECT_EQ(policy.level(), 0);

    // The nonzero loss threshold still degrades on its own...
    EXPECT_FALSE(policy.update(0.2, 5000.0, sim::Time::seconds(11.0)));
    EXPECT_TRUE(policy.update(0.2, 5000.0, sim::Time::seconds(12.0)));
    EXPECT_EQ(policy.level(), 1);

    // ...and recovery only consults loss: huge delay does not hold the
    // level down once loss is back under exit_loss.
    EXPECT_FALSE(policy.update(0.0, 5000.0, sim::Time::seconds(13.0)));
    EXPECT_TRUE(policy.update(0.0, 5000.0, sim::Time::seconds(14.0)));
    EXPECT_EQ(policy.level(), 0);
}

TEST(DegradationTest, LevelIsCappedAndLodFollows) {
    DegradationParams p;
    p.hold = sim::Time::zero();
    p.max_level = 2;
    DegradationPolicy policy{p};
    EXPECT_EQ(policy.lod(), avatar::LodLevel::High);
    policy.update(0.5, sim::Time::seconds(1.0));
    policy.update(0.5, sim::Time::seconds(2.0));
    policy.update(0.5, sim::Time::seconds(3.0));
    EXPECT_EQ(policy.level(), 2);
    EXPECT_EQ(policy.lod(), avatar::coarser(avatar::coarser(avatar::LodLevel::High)));
}

// --------------------------------------------- end-to-end failover routing

TEST(FailoverIntegrationTest, EdgeStreamsSurviveLinkOutageViaCloudRelay) {
    core::ClassroomConfig config;
    config.seed = 11;
    config.heartbeat.enabled = true;
    config.heartbeat.interval = sim::Time::ms(50);
    config.heartbeat.timeout = sim::Time::ms(200);
    core::MetaverseClassroom classroom{config};
    const auto cwb = classroom.add_physical_student(0);
    classroom.add_physical_student(1);
    classroom.start();
    classroom.run_for(sim::Time::seconds(5.0));

    auto& net = classroom.network();
    auto& edge_gz = classroom.edge_server(1);
    const net::NodeId edge0 = classroom.edge_server(0).node();
    const net::NodeId edge1 = edge_gz.node();
    ASSERT_TRUE(edge_gz.peer_alive(edge0));
    const std::uint64_t before = edge_gz.remote_update_count(cwb);
    ASSERT_GT(before, 0u);

    // Cut the direct edge-edge link for 5 s.
    net.set_link_up(edge0, edge1, false);
    classroom.run_for(sim::Time::seconds(5.0));

    // Both edges detected the outage, and the CWB student's stream kept
    // flowing into GZ through the cloud relay.
    EXPECT_FALSE(edge_gz.peer_alive(edge0));
    EXPECT_FALSE(classroom.edge_server(0).peer_alive(edge1));
    const std::uint64_t during = edge_gz.remote_update_count(cwb);
    EXPECT_GT(during, before);
    EXPECT_GT(classroom.edge_server(0).relayed_out(), 0u);
    EXPECT_GT(classroom.cloud_server().relayed_for_failover(), 0u);

    // Restore: direct path resumes, relay traffic stops growing.
    net.set_link_up(edge0, edge1, true);
    classroom.run_for(sim::Time::seconds(2.0));
    EXPECT_TRUE(edge_gz.peer_alive(edge0));
    ASSERT_NE(classroom.edge_server(0).heartbeat(), nullptr);
    EXPECT_GE(classroom.edge_server(0).heartbeat()->failbacks(), 1u);
    const std::uint64_t relayed_at_restore = classroom.edge_server(0).relayed_out();
    classroom.run_for(sim::Time::seconds(2.0));
    EXPECT_GT(edge_gz.remote_update_count(cwb), during);
    EXPECT_EQ(classroom.edge_server(0).relayed_out(), relayed_at_restore);
    classroom.stop();
}

// A stream that fails over through the cloud relay and back leaves gaps on
// both paths that were never lost: each move starts a new baseline on the
// path it moves to. Two outages, so the relay path sees the same streams
// again after a long direct stretch.
TEST(FailoverIntegrationTest, RerouteIsNotLoss) {
    core::ClassroomConfig config;
    config.seed = 11;
    config.heartbeat.enabled = true;
    config.heartbeat.interval = sim::Time::ms(50);
    config.heartbeat.timeout = sim::Time::ms(200);
    core::MetaverseClassroom classroom{config};
    for (int i = 0; i < 4; ++i) classroom.add_physical_student(0);
    classroom.add_physical_student(1);
    auto& net = classroom.network();
    auto& edge_gz = classroom.edge_server(1);
    const net::NodeId edge0 = classroom.edge_server(0).node();
    const net::NodeId edge1 = edge_gz.node();
    const net::NodeId cloud = classroom.cloud_server().node();
    classroom.start();
    for (int outage = 0; outage < 2; ++outage) {
        classroom.run_for(sim::Time::seconds(3.0));
        net.set_link_up(edge0, edge1, false);
        classroom.run_for(sim::Time::seconds(3.0));
        ASSERT_FALSE(edge_gz.peer_alive(edge0));
        net.set_link_up(edge0, edge1, true);
    }
    classroom.run_for(sim::Time::seconds(3.0));
    ASSERT_TRUE(edge_gz.peer_alive(edge0));
    EXPECT_GT(classroom.cloud_server().relayed_for_failover(), 0u);
    EXPECT_EQ(edge_gz.path_health().at(cloud).lost(), 0u);
    EXPECT_EQ(edge_gz.path_health().at(edge0).lost(), 0u);
    classroom.stop();
}

TEST(FailoverIntegrationTest, HeartbeatsOffByDefaultCostNothing) {
    core::ClassroomConfig config;
    config.seed = 3;
    core::MetaverseClassroom classroom{config};
    classroom.add_physical_student(0);
    classroom.start();
    classroom.run_for(sim::Time::seconds(2.0));
    EXPECT_EQ(classroom.edge_server(0).heartbeat(), nullptr);
    EXPECT_EQ(classroom.network().metrics().counter("net.tx_bytes.hb"), 0u);
    classroom.stop();
}

// Only the edge<->cloud link is lossy; the edge<->edge link stays clean and
// carries GZ's students' avatar streams into CWB, about four times the
// cloud's probe traffic (pooled into one estimate, 0.3 loss on the probes
// reads below the 0.08 enter threshold). The edge steps on its worst live
// inbound path, so the clean streams do not dilute the lossy link: CWB
// still steps down, and GZ, whose links are clean, does not.
TEST(FailoverIntegrationTest, EdgeStepsDownWhenOnlyCloudLinkIsLossy) {
    core::ClassroomConfig config;
    config.seed = 5;
    config.heartbeat.enabled = true;
    config.heartbeat.interval = sim::Time::ms(50);
    config.heartbeat.timeout = sim::Time::seconds(1.0);  // loss runs are not outages
    core::MetaverseClassroom classroom{config};
    classroom.add_physical_student(0);
    constexpr std::size_t kGzStudents = 16;  // ~85 updates/s against 20 probes/s
    for (std::size_t i = 0; i < kGzStudents; ++i) classroom.add_physical_student(1);
    auto& net = classroom.network();
    const net::NodeId edge = classroom.edge_server(0).node();
    const net::NodeId cloud = classroom.cloud_server().node();
    for (const auto& [from, to] : {std::pair{edge, cloud}, std::pair{cloud, edge}}) {
        net::Link* link = net.link(from, to);
        ASSERT_NE(link, nullptr);
        net::LinkParams lossy = link->params();
        lossy.loss = 0.3;
        link->set_params(lossy);
    }
    classroom.start();
    classroom.run_for(sim::Time::seconds(10.0));
    EXPECT_TRUE(classroom.edge_server(0).peer_alive(cloud));
    // The clean stream really flows: GZ's students reach CWB directly.
    EXPECT_EQ(classroom.edge_server(0).remote_participants().size(), kGzStudents);
    EXPECT_GE(classroom.edge_server(0).degradation_level(), 1);
    EXPECT_EQ(classroom.edge_server(1).degradation_level(), 0);
    classroom.stop();
}

}  // namespace
}  // namespace mvc::fault
