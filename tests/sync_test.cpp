// Tests for the synchronization layer: NTP-like clock sync, jitter buffer,
// interest management (grid + policy), and avatar replication with
// dead-reckoning send gating.

#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

#include "fault/degradation.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "sync/clock.hpp"
#include "sync/interest.hpp"
#include "sync/jitter.hpp"
#include "sync/replication.hpp"

namespace mvc::sync {
namespace {

// --------------------------------------------------------------------- clock

struct ClockFixture : ::testing::Test {
    sim::Simulator sim{41};
    net::Network net{sim};
    net::NodeId a = net.add_node("client", net::Region::HongKong);
    net::NodeId b = net.add_node("server", net::Region::Guangzhou);
    net::PacketDemux demux_a{net, a};
    net::PacketDemux demux_b{net, b};

    void connect(sim::Time latency, sim::Time jitter = sim::Time::zero()) {
        net::LinkParams params;
        params.latency = latency;
        params.jitter = jitter;
        net.connect(a, b, params);
    }
};

TEST_F(ClockFixture, RecoversStaticOffset) {
    connect(sim::Time::ms(10));
    const DriftingClock client{0.0, sim::Time::ms(500)};
    const DriftingClock server{0.0, sim::Time::ms(-250)};
    ClockSyncSession sync{net, demux_a, demux_b, "ntp", client, server};
    sync.start();
    sim.run_until(sim::Time::seconds(5));
    ASSERT_TRUE(sync.synchronized());
    // True offset = 500 - (-250) = 750 ms; symmetric links make this exact.
    EXPECT_NEAR(sync.estimated_offset().to_ms(), 750.0, 0.5);
    EXPECT_LT(sync.estimation_error().to_ms(), 0.5);
}

TEST_F(ClockFixture, JitterHandledByMinRttFilter) {
    connect(sim::Time::ms(10), sim::Time::ms(4));
    const DriftingClock client{0.0, sim::Time::ms(100)};
    const DriftingClock server{0.0, sim::Time::zero()};
    ClockSyncSession sync{net, demux_a, demux_b, "ntp", client, server};
    sync.start();
    sim.run_until(sim::Time::seconds(10));
    // Min-RTT filtering keeps the error well under the jitter magnitude.
    EXPECT_LT(sync.estimation_error().to_ms(), 3.0);
}

TEST_F(ClockFixture, TracksSkewOverTime) {
    connect(sim::Time::ms(5));
    const DriftingClock client{100.0, sim::Time::zero()};  // +100 ppm
    const DriftingClock server{0.0, sim::Time::zero()};
    ClockSyncSession sync{net, demux_a, demux_b, "ntp", client, server};
    sync.start();
    sim.run_until(sim::Time::seconds(60));
    // After 60 s the clocks drift 6 ms apart; the windowed estimator follows.
    EXPECT_LT(sync.estimation_error().to_ms(), 1.5);
    EXPECT_GT(sync.probes_completed(), 100u);
}

TEST_F(ClockFixture, ToServerTimeAppliesOffset) {
    connect(sim::Time::ms(1));
    const DriftingClock client{0.0, sim::Time::ms(42)};
    const DriftingClock server{0.0, sim::Time::zero()};
    ClockSyncSession sync{net, demux_a, demux_b, "ntp", client, server};
    sync.start();
    sim.run_until(sim::Time::seconds(2));
    const sim::Time t_client = client.local_time(sim.now());
    EXPECT_NEAR((sync.to_server_time(t_client) - sim.now()).to_ms(), 0.0, 0.5);
}

TEST(DriftingClockTest, SkewScalesTime) {
    const DriftingClock c{1000.0, sim::Time::zero()};  // +1000 ppm = 0.1%
    EXPECT_NEAR(c.local_time(sim::Time::seconds(100)).to_seconds(), 100.1, 1e-9);
    EXPECT_NEAR(c.true_offset(sim::Time::seconds(100)).to_ms(), 100.0, 1e-6);
}

// ------------------------------------------------------------------- jitter

avatar::AvatarState state_at(double t_ms, double x = 0.0) {
    avatar::AvatarState s;
    s.participant = ParticipantId{1};
    s.captured_at = sim::Time::ms(t_ms);
    s.root.pose.position = {x, 0, 0};
    s.root.linear_velocity = {1.0, 0, 0};
    s.body.head.position = {x, 0.65, 0};
    return s;
}

TEST(JitterBufferTest, EmptyReturnsNullopt) {
    const JitterBuffer jb;
    EXPECT_FALSE(jb.sample(sim::Time::ms(100)).has_value());
}

TEST(JitterBufferTest, InterpolatesBetweenStates) {
    JitterBufferParams params;
    params.min_delay = sim::Time::ms(20);
    JitterBuffer jb{params};
    // States captured every 20 ms, arriving with constant 10 ms transit.
    for (int i = 0; i <= 10; ++i) {
        jb.push(state_at(i * 20.0, i * 0.2), sim::Time::ms(i * 20.0 + 10.0));
    }
    // Sample at a time whose playout point falls mid-interval.
    const auto out = jb.sample(sim::Time::ms(150.0));
    ASSERT_TRUE(out.has_value());
    // Playout target = 150 - ~10 (transit) - 20 (delay) = ~120 => x ≈ 1.2.
    EXPECT_NEAR(out->root.pose.position.x, 1.2, 0.1);
}

TEST(JitterBufferTest, ReorderedArrivalsSortByCaptureTime) {
    JitterBuffer jb;
    jb.push(state_at(40.0, 4.0), sim::Time::ms(50));
    jb.push(state_at(20.0, 2.0), sim::Time::ms(52));  // late but older
    jb.push(state_at(60.0, 6.0), sim::Time::ms(70));
    const auto out = jb.sample(sim::Time::ms(80));
    ASSERT_TRUE(out.has_value());
    // Whatever the playout point, interpolation must be monotone in x(t).
    EXPECT_GE(out->root.pose.position.x, 2.0 - 1e-9);
    EXPECT_LE(out->root.pose.position.x, 6.0 + 1e-9);
}

TEST(JitterBufferTest, UnderrunExtrapolatesBounded) {
    JitterBufferParams params;
    params.min_delay = sim::Time::ms(10);
    params.max_extrapolation = sim::Time::ms(50);
    JitterBuffer jb{params};
    jb.push(state_at(0.0, 0.0), sim::Time::ms(5));
    // Long silence: sample far past the last capture.
    const auto out = jb.sample(sim::Time::ms(500));
    ASSERT_TRUE(out.has_value());
    // Extrapolation capped at 50 ms of the 1 m/s motion.
    EXPECT_LE(out->root.pose.position.x, 0.051);
    EXPECT_GT(jb.underruns(), 0u);
}

TEST(JitterBufferTest, PlayoutDelayRespondsToJitter) {
    JitterBufferParams params;
    params.min_delay = sim::Time::ms(5);
    params.max_delay = sim::Time::ms(200);
    JitterBuffer steady{params};
    JitterBuffer wobbly{params};
    std::mt19937 gen{3};
    std::uniform_real_distribution<double> noise{0.0, 40.0};
    for (int i = 0; i < 100; ++i) {
        steady.push(state_at(i * 20.0), sim::Time::ms(i * 20.0 + 10.0));
        wobbly.push(state_at(i * 20.0), sim::Time::ms(i * 20.0 + 10.0 + noise(gen)));
    }
    EXPECT_GT(wobbly.playout_delay(), steady.playout_delay());
    EXPECT_GE(steady.playout_delay(), params.min_delay);
    EXPECT_LE(wobbly.playout_delay(), params.max_delay);
}

TEST(JitterBufferTest, HistoryPruned) {
    JitterBufferParams params;
    params.history = sim::Time::ms(100);
    JitterBuffer jb{params};
    for (int i = 0; i < 100; ++i) {
        jb.push(state_at(i * 20.0), sim::Time::ms(i * 20.0 + 5.0));
    }
    EXPECT_LE(jb.depth(), 7u);  // ~100 ms / 20 ms + slack
}

// ------------------------------------------------------------------ interest

TEST(InterestGridTest, QueryMatchesBruteForce) {
    InterestGrid grid{3.0};
    std::mt19937 gen{7};
    std::uniform_real_distribution<double> d{-30.0, 30.0};
    std::vector<std::pair<EntityId, math::Vec3>> entities;
    for (std::uint32_t i = 1; i <= 200; ++i) {
        const math::Vec3 p{d(gen), 0.0, d(gen)};
        entities.emplace_back(EntityId{i}, p);
        grid.update(EntityId{i}, p);
    }
    std::vector<EntityId> got;
    for (int trial = 0; trial < 20; ++trial) {
        const math::Vec3 center{d(gen), 0.0, d(gen)};
        const double radius = 8.0;
        grid.query_radius_into(center, radius, got);
        std::vector<EntityId> expected;
        for (const auto& [id, p] : entities) {
            if ((p - center).norm() <= radius) expected.push_back(id);
        }
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(got, expected);
    }
}

TEST(InterestGridTest, UpdateMovesEntityAcrossCells) {
    InterestGrid grid{2.0};
    std::vector<EntityId> got;
    grid.update(EntityId{1}, {0, 0, 0});
    grid.query_radius_into({0, 0, 0}, 1.0, got);
    EXPECT_EQ(got.size(), 1u);
    grid.update(EntityId{1}, {50, 0, 0});
    grid.query_radius_into({0, 0, 0}, 1.0, got);
    EXPECT_TRUE(got.empty());
    grid.query_radius_into({50, 0, 0}, 1.0, got);
    EXPECT_EQ(got.size(), 1u);
    EXPECT_EQ(grid.size(), 1u);
}

TEST(InterestGridTest, RemoveErases) {
    InterestGrid grid;
    grid.update(EntityId{1}, {1, 0, 1});
    grid.remove(EntityId{1});
    EXPECT_EQ(grid.size(), 0u);
    std::vector<EntityId> got;
    grid.query_radius_into({1, 0, 1}, 5.0, got);
    EXPECT_TRUE(got.empty());
    grid.remove(EntityId{1});  // idempotent
}

TEST(InterestGridTest, QueryNearestOrdersByDistance) {
    InterestGrid grid;
    grid.update(EntityId{1}, {10, 0, 0});
    grid.update(EntityId{2}, {1, 0, 0});
    grid.update(EntityId{3}, {5, 0, 0});
    std::vector<EntityId> nearest;
    grid.query_nearest_into({0, 0, 0}, 20.0, 2, nearest);
    ASSERT_EQ(nearest.size(), 2u);
    EXPECT_EQ(nearest[0], EntityId{2});
    EXPECT_EQ(nearest[1], EntityId{3});
}

TEST(InterestGridTest, PositionLookup) {
    InterestGrid grid;
    grid.update(EntityId{4}, {2, 3, 4});
    ASSERT_NE(grid.position_of(EntityId{4}), nullptr);
    EXPECT_TRUE(math::approx_equal(*grid.position_of(EntityId{4}), {2, 3, 4}));
    EXPECT_EQ(grid.position_of(EntityId{5}), nullptr);
}

TEST(InterestGridTest, CellHashSpreadsNegativeCoordinates) {
    // Regression: the old hash cast int32 cell coordinates straight to
    // size_t, sign-extending negatives to 0xFFFFFFFFxxxxxxxx; after the prime
    // multiplies whole negative-coordinate quadrants collapsed onto a handful
    // of unordered_map buckets. Hash a mixed-sign cube and demand both full
    // distinctness and a healthy spread in the low bits that drive bucket
    // selection.
    std::unordered_set<std::size_t> hashes;
    std::unordered_set<std::size_t> low_bits;
    constexpr int kHalf = 6;  // [-6, 6]^3 = 2197 cells, most with a negative coord
    for (int x = -kHalf; x <= kHalf; ++x) {
        for (int y = -kHalf; y <= kHalf; ++y) {
            for (int z = -kHalf; z <= kHalf; ++z) {
                const std::size_t h = InterestGrid::cell_hash(x, y, z);
                hashes.insert(h);
                low_bits.insert(h % 4096);
            }
        }
    }
    constexpr std::size_t kCells = (2 * kHalf + 1) * (2 * kHalf + 1) * (2 * kHalf + 1);
    EXPECT_EQ(hashes.size(), kCells);  // no full-hash collisions at all
    // With 2197 keys into 4096 slots, a uniform hash leaves ~1800 distinct
    // residues (birthday overlap); the sign-extension bug left far fewer.
    EXPECT_GT(low_bits.size(), 1500u);
}

TEST(InterestGridTest, MixedSignRoomQueriesStayExact) {
    // Entities spread across all eight octants (the bug's worst case) must
    // still answer radius queries exactly.
    InterestGrid grid{2.0};
    std::mt19937 gen{11};
    std::uniform_real_distribution<double> d{-25.0, 25.0};
    std::vector<std::pair<EntityId, math::Vec3>> entities;
    for (std::uint32_t i = 1; i <= 300; ++i) {
        const math::Vec3 p{d(gen), d(gen), d(gen)};
        entities.emplace_back(EntityId{i}, p);
        grid.update(EntityId{i}, p);
    }
    std::vector<EntityId> got;
    for (int trial = 0; trial < 10; ++trial) {
        const math::Vec3 center{d(gen), d(gen), d(gen)};
        grid.query_radius_into(center, 6.0, got);
        std::vector<EntityId> expected;
        for (const auto& [id, p] : entities) {
            if ((p - center).norm() <= 6.0) expected.push_back(id);
        }
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(got, expected);
    }
}

TEST(InterestPolicyTest, DefaultTiersCoverLadder) {
    const InterestPolicy policy;
    const InterestTier* close = policy.tier_for(2.0);
    ASSERT_NE(close, nullptr);
    EXPECT_EQ(close->lod, avatar::LodLevel::High);
    const InterestTier* far = policy.tier_for(50.0);
    ASSERT_NE(far, nullptr);
    EXPECT_EQ(far->lod, avatar::LodLevel::Billboard);
    EXPECT_EQ(policy.tier_for(500.0), nullptr);
    EXPECT_GT(close->update_rate_hz, far->update_rate_hz);
}

TEST(InterestPolicyTest, CustomTiersValidated) {
    EXPECT_THROW(InterestPolicy{std::vector<InterestTier>{}}, std::invalid_argument);
    EXPECT_THROW(InterestPolicy(std::vector<InterestTier>{
                     {10.0, 30.0, avatar::LodLevel::High},
                     {5.0, 15.0, avatar::LodLevel::Low}}),
                 std::invalid_argument);
}

// --------------------------------------------------------------- replication

struct ReplicationFixture : ::testing::Test {
    sim::Simulator sim{51};
    avatar::AvatarCodec codec;

    avatar::AvatarState moving_state(double t_s) {
        avatar::AvatarState s;
        s.participant = ParticipantId{1};
        s.captured_at = sim::Time::seconds(t_s);
        s.root.pose.position = {t_s * 1.0, 0, 0};  // 1 m/s
        s.root.linear_velocity = {1.0, 0, 0};
        // Body rides along with the root (a coherent walking avatar).
        s.body.head.position = s.root.pose.position + math::Vec3{0, 0.65, 0};
        s.body.left_hand.position = s.root.pose.position + math::Vec3{-0.25, 0.35, 0};
        s.body.right_hand.position = s.root.pose.position + math::Vec3{0.25, 0.35, 0};
        return s;
    }
};

TEST_F(ReplicationFixture, StaticAvatarSendsOnlyKeyframes) {
    ReplicationParams params;
    params.tick_rate_hz = 30.0;
    params.error_threshold = 0.02;
    params.keyframe_interval = sim::Time::seconds(1.0);
    int sent = 0;
    AvatarPublisher pub{sim, codec, params,
                       [&](std::vector<std::uint8_t>, bool, sim::Time) { ++sent; }};
    avatar::AvatarState s;
    s.participant = ParticipantId{1};
    pub.set_state(s);
    pub.start();
    sim.run_until(sim::Time::seconds(10));
    // ~1 keyframe per second; dead reckoning suppresses everything else.
    EXPECT_LE(sent, 12);
    EXPECT_GE(sent, 9);
    EXPECT_GT(pub.suppressed(), 200u);
}

TEST_F(ReplicationFixture, AcceleratingAvatarSendsUpdates) {
    ReplicationParams params;
    params.tick_rate_hz = 30.0;
    params.error_threshold = 0.02;
    int sent = 0;
    AvatarPublisher pub{sim, codec, params,
                       [&](std::vector<std::uint8_t>, bool, sim::Time) { ++sent; }};
    // Oscillating motion defeats constant-velocity prediction.
    pub.set_provider([&]() -> std::optional<avatar::AvatarState> {
        const double t = sim.now().to_seconds();
        avatar::AvatarState s;
        s.participant = ParticipantId{1};
        s.captured_at = sim.now();
        s.root.pose.position = {std::sin(3.0 * t), 0, 0};
        s.root.linear_velocity = {3.0 * std::cos(3.0 * t), 0, 0};
        return s;
    });
    pub.start();
    sim.run_until(sim::Time::seconds(5));
    EXPECT_GT(sent, 50);
}

TEST_F(ReplicationFixture, ConstantVelocitySuppressedByDeadReckoning) {
    ReplicationParams params;
    params.tick_rate_hz = 30.0;
    params.error_threshold = 0.05;
    params.keyframe_interval = sim::Time::seconds(2.0);
    int updates = 0;
    int keyframes = 0;
    AvatarPublisher pub{sim, codec, params,
                       [&](std::vector<std::uint8_t>, bool kf, sim::Time) {
                           kf ? ++keyframes : ++updates;
                       }};
    pub.set_provider([&]() -> std::optional<avatar::AvatarState> {
        return moving_state(sim.now().to_seconds());
    });
    pub.start();
    sim.run_until(sim::Time::seconds(10));
    // Constant velocity is perfectly predictable: deltas stay rare.
    EXPECT_LT(updates, 20);
    EXPECT_GE(keyframes, 4);
}

TEST_F(ReplicationFixture, ZeroThresholdSendsEveryTick) {
    ReplicationParams params;
    params.tick_rate_hz = 20.0;
    params.error_threshold = 0.0;
    int sent = 0;
    AvatarPublisher pub{sim, codec, params,
                       [&](std::vector<std::uint8_t>, bool, sim::Time) { ++sent; }};
    pub.set_provider([&]() -> std::optional<avatar::AvatarState> {
        return moving_state(sim.now().to_seconds());
    });
    pub.start();
    sim.run_until(sim::Time::seconds(5));
    EXPECT_EQ(sent, 100);
    EXPECT_EQ(pub.suppressed(), 0u);
}

TEST_F(ReplicationFixture, RequestKeyframeForcesFull) {
    ReplicationParams params;
    params.tick_rate_hz = 10.0;
    params.keyframe_interval = sim::Time::seconds(100.0);
    int keyframes = 0;
    AvatarPublisher pub{sim, codec, params,
                       [&](std::vector<std::uint8_t>, bool kf, sim::Time) {
                           if (kf) ++keyframes;
                       }};
    pub.set_provider([&]() -> std::optional<avatar::AvatarState> {
        return moving_state(sim.now().to_seconds());
    });
    pub.start();
    sim.run_until(sim::Time::seconds(2));
    EXPECT_EQ(keyframes, 1);  // initial only
    pub.request_keyframe();
    sim.run_until(sim::Time::seconds(3));
    EXPECT_EQ(keyframes, 2);
}

TEST_F(ReplicationFixture, SetRateScaleReschedulesImmediately) {
    ReplicationParams params;
    params.tick_rate_hz = 20.0;
    params.error_threshold = 0.0;  // every tick sends: exact counting
    int sent = 0;
    AvatarPublisher pub{sim, codec, params,
                       [&](std::vector<std::uint8_t>, bool, sim::Time) { ++sent; }};
    pub.set_provider([&]() -> std::optional<avatar::AvatarState> {
        return moving_state(sim.now().to_seconds());
    });
    pub.start();
    sim.run_until(sim::Time::seconds(5));
    EXPECT_EQ(sent, 100);  // 20 Hz for 5 s

    // Halving the rate reschedules the periodic task immediately — the next
    // tick lands one scaled period out, not at the old cadence.
    pub.set_rate_scale(0.5);
    const int at_half_start = sent;
    sim.run_until(sim::Time::seconds(10));
    const int half_rate_sends = sent - at_half_start;
    EXPECT_GE(half_rate_sends, 49);
    EXPECT_LE(half_rate_sends, 51);

    pub.set_rate_scale(1.0);
    const int at_full_start = sent;
    sim.run_until(sim::Time::seconds(15));
    const int full_rate_sends = sent - at_full_start;
    EXPECT_GE(full_rate_sends, 99);
    EXPECT_LE(full_rate_sends, 101);
}

TEST_F(ReplicationFixture, RateScaleFollowsDegradationLadderWithFailbackKeyframe) {
    // Drive the publisher the way an edge server does under sustained loss:
    // each degradation-ladder step halves the tick rate, and failback forces
    // a keyframe so the recovered peer re-anchors instantly.
    fault::DegradationParams dp;
    dp.hold = sim::Time::zero();
    fault::DegradationPolicy policy{dp};

    ReplicationParams params;
    params.tick_rate_hz = 20.0;
    params.error_threshold = 0.0;
    params.keyframe_interval = sim::Time::seconds(1000.0);  // keyframes only on demand
    int sent = 0;
    int keyframes = 0;
    AvatarPublisher pub{sim, codec, params,
                       [&](std::vector<std::uint8_t>, bool kf, sim::Time) {
                           ++sent;
                           if (kf) ++keyframes;
                       }};
    pub.set_provider([&]() -> std::optional<avatar::AvatarState> {
        return moving_state(sim.now().to_seconds());
    });
    pub.start();

    sim.run_until(sim::Time::seconds(2));
    const int full_rate = sent;
    EXPECT_EQ(full_rate, 40);  // 20 Hz

    policy.update(0.5, sim.now());  // level 1
    pub.set_rate_scale(policy.rate_scale());
    sim.run_until(sim::Time::seconds(4));
    const int level1 = sent - full_rate;
    EXPECT_GE(level1, 19);
    EXPECT_LE(level1, 21);  // 10 Hz

    policy.update(0.5, sim.now());  // level 2
    pub.set_rate_scale(policy.rate_scale());
    sim.run_until(sim::Time::seconds(6));
    const int level2 = sent - full_rate - level1;
    EXPECT_GE(level2, 9);
    EXPECT_LE(level2, 11);  // 5 Hz

    // Loss clears: back to full fidelity, and — as on heartbeat failback —
    // the next update must be a forced keyframe despite the huge interval.
    policy.update(0.0, sim.now());
    policy.update(0.0, sim.now());
    EXPECT_EQ(policy.level(), 0);
    pub.set_rate_scale(policy.rate_scale());
    pub.request_keyframe();
    const int before = sent;
    const int keyframes_before = keyframes;
    sim.run_until(sim::Time::seconds(6.2));
    ASSERT_GT(sent, before);
    EXPECT_EQ(keyframes, keyframes_before + 1);
    sim.run_until(sim::Time::seconds(8.2));
    const int restored = sent - before;
    EXPECT_GE(restored, 43);  // back at 20 Hz
}

TEST_F(ReplicationFixture, ReplicaRoundTripThroughPublisher) {
    ReplicationParams params;
    params.tick_rate_hz = 30.0;
    params.error_threshold = 0.01;
    AvatarReplica replica{codec};
    AvatarPublisher pub{sim, codec, params,
                       [&](std::vector<std::uint8_t> bytes, bool kf, sim::Time) {
                           replica.ingest(bytes, kf, sim.now());
                       }};
    pub.set_provider([&]() -> std::optional<avatar::AvatarState> {
        return moving_state(sim.now().to_seconds());
    });
    pub.start();
    sim.run_until(sim::Time::seconds(5));
    const auto latest = replica.latest();
    ASSERT_TRUE(latest.has_value());
    // Receiver's newest state matches the truth at its capture time.
    const double t = latest->captured_at.to_seconds();
    EXPECT_NEAR(latest->root.pose.position.x, t, 0.05);
    EXPECT_GT(replica.decoded(), 0u);
}

TEST_F(ReplicationFixture, DeltasBeforeKeyframeDropped) {
    AvatarReplica replica{codec};
    const avatar::AvatarState a = moving_state(0.0);
    const avatar::AvatarState b = moving_state(1.0);
    const auto delta = codec.encode_delta(a, b);
    replica.ingest(delta, false, sim::Time::ms(1));
    EXPECT_EQ(replica.decoded(), 0u);
    EXPECT_EQ(replica.dropped_waiting_keyframe(), 1u);
    replica.ingest(codec.encode_full(a), true, sim::Time::ms(2));
    replica.ingest(delta, false, sim::Time::ms(3));
    EXPECT_EQ(replica.decoded(), 2u);
}

TEST_F(ReplicationFixture, InvalidParamsThrow) {
    ReplicationParams bad;
    bad.tick_rate_hz = 0.0;
    EXPECT_THROW(AvatarPublisher(sim, codec, bad,
                                 [](std::vector<std::uint8_t>, bool, sim::Time) {}),
                 std::invalid_argument);
    EXPECT_THROW(AvatarPublisher(sim, codec, ReplicationParams{}, nullptr),
                 std::invalid_argument);
}

}  // namespace
}  // namespace mvc::sync
