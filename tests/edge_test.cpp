// Tests for the edge layer: seat maps, Hungarian assignment (verified
// against brute force), pose retargeting, and the edge server end to end
// over a simulated classroom pair.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "edge/edge_server.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "edge/retarget.hpp"
#include "edge/seats.hpp"

namespace mvc::edge {
namespace {

// ------------------------------------------------------------------- SeatMap

TEST(SeatMapTest, GridGeometry) {
    const SeatMap seats = SeatMap::grid(3, 4, 1.0, 2.0);
    EXPECT_EQ(seats.size(), 12u);
    EXPECT_EQ(seats.vacant_count(), 12u);
    // First seat: leftmost column, first row.
    EXPECT_NEAR(seats.seat(0).pose.position.x, -1.5, 1e-9);
    EXPECT_NEAR(seats.seat(0).pose.position.z, 2.0, 1e-9);
    // Last seat: rightmost column, last row.
    EXPECT_NEAR(seats.seat(11).pose.position.x, 1.5, 1e-9);
    EXPECT_NEAR(seats.seat(11).pose.position.z, 4.0, 1e-9);
}

TEST(SeatMapTest, OccupyAndVacate) {
    SeatMap seats = SeatMap::grid(2, 2);
    EXPECT_TRUE(seats.occupy(1, ParticipantId{7}));
    EXPECT_FALSE(seats.occupy(1, ParticipantId{8}));  // already taken
    EXPECT_EQ(seats.vacant_count(), 3u);
    EXPECT_EQ(seats.seat_of(ParticipantId{7}), std::optional<std::size_t>{1});
    EXPECT_FALSE(seats.seat_of(ParticipantId{8}).has_value());
    seats.vacate(1);
    EXPECT_EQ(seats.vacant_count(), 4u);
    EXPECT_FALSE(seats.seat_of(ParticipantId{7}).has_value());
}

TEST(SeatMapTest, VacantIndicesSkipOccupied) {
    SeatMap seats = SeatMap::grid(1, 3);
    seats.occupy(1, ParticipantId{1});
    const auto vacant = seats.vacant_indices();
    EXPECT_EQ(vacant, (std::vector<std::size_t>{0, 2}));
}

// ----------------------------------------------------------------- Hungarian

double brute_force_best(const std::vector<std::vector<double>>& cost) {
    const std::size_t n = cost.size();
    const std::size_t m = cost[0].size();
    std::vector<std::size_t> cols(m);
    std::iota(cols.begin(), cols.end(), 0u);
    double best = 1e300;
    // Try every permutation of columns; first n entries map to rows.
    std::sort(cols.begin(), cols.end());
    do {
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i) total += cost[i][cols[i]];
        best = std::min(best, total);
    } while (std::next_permutation(cols.begin(), cols.end()));
    return best;
}

TEST(HungarianTest, MatchesBruteForceOnRandomInstances) {
    std::mt19937 gen{61};
    std::uniform_real_distribution<double> d{0.0, 10.0};
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t n = 2 + gen() % 4;  // rows 2..5
        const std::size_t m = n + gen() % 3;  // cols n..n+2
        std::vector<std::vector<double>> cost(n, std::vector<double>(m));
        for (auto& row : cost) {
            for (auto& c : row) c = d(gen);
        }
        const auto match = hungarian(cost);
        double total = 0.0;
        std::set<std::size_t> used;
        for (std::size_t i = 0; i < n; ++i) {
            total += cost[i][match[i]];
            used.insert(match[i]);
        }
        EXPECT_EQ(used.size(), n) << "assignment must be injective";
        EXPECT_NEAR(total, brute_force_best(cost), 1e-9);
    }
}

TEST(HungarianTest, IdentityOnDiagonalCosts) {
    // Strong diagonal preference must recover the identity matching.
    std::vector<std::vector<double>> cost(4, std::vector<double>(4, 10.0));
    for (std::size_t i = 0; i < 4; ++i) cost[i][i] = 0.0;
    const auto match = hungarian(cost);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(match[i], i);
}

TEST(HungarianTest, RejectsBadShapes) {
    EXPECT_THROW((void)hungarian({{1.0, 2.0}, {3.0}}), std::invalid_argument);
    EXPECT_THROW((void)hungarian({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}}),
                 std::invalid_argument);
    EXPECT_TRUE(hungarian({}).empty());
}

// ----------------------------------------------------------- seat assignment

TEST(SeatAssignmentTest, PreservesRelativeGeometry) {
    // Remote trio seated left-middle-right must map to seats in the same
    // left-to-right order.
    SeatMap seats = SeatMap::grid(1, 5, 1.0);
    const std::vector<SeatRequest> requests{
        {ParticipantId{1}, {-2.0, 0, 0}},
        {ParticipantId{2}, {0.0, 0, 0}},
        {ParticipantId{3}, {2.0, 0, 0}},
    };
    const AssignmentResult res = assign_seats_optimal(seats, requests);
    ASSERT_EQ(res.assignments.size(), 3u);
    double prev_x = -1e9;
    for (const ParticipantId who : {ParticipantId{1}, ParticipantId{2}, ParticipantId{3}}) {
        const auto it = std::find_if(res.assignments.begin(), res.assignments.end(),
                                     [who](const SeatAssignment& a) {
                                         return a.participant == who;
                                     });
        ASSERT_NE(it, res.assignments.end());
        const double x = seats.seat(it->seat_index).pose.position.x;
        EXPECT_GT(x, prev_x);
        prev_x = x;
    }
}

TEST(SeatAssignmentTest, OptimalNeverWorseThanGreedy) {
    std::mt19937 gen{62};
    std::uniform_real_distribution<double> d{-5.0, 5.0};
    for (int trial = 0; trial < 20; ++trial) {
        SeatMap seats = SeatMap::grid(3, 4);
        std::vector<SeatRequest> requests;
        for (std::uint32_t i = 1; i <= 8; ++i) {
            requests.push_back({ParticipantId{i}, {d(gen), 0.0, d(gen)}});
        }
        const double optimal = assign_seats_optimal(seats, requests).total_cost;
        const double greedy = assign_seats_greedy(seats, requests).total_cost;
        EXPECT_LE(optimal, greedy + 1e-9);
    }
}

TEST(SeatAssignmentTest, OverflowReportsUnseated) {
    SeatMap seats = SeatMap::grid(1, 2);
    std::vector<SeatRequest> requests;
    for (std::uint32_t i = 1; i <= 4; ++i) {
        requests.push_back({ParticipantId{i}, {static_cast<double>(i), 0, 0}});
    }
    const AssignmentResult res = assign_seats_optimal(seats, requests);
    EXPECT_EQ(res.assignments.size(), 2u);
    EXPECT_EQ(res.unseated.size(), 2u);
}

TEST(SeatAssignmentTest, OccupiedSeatsExcluded) {
    SeatMap seats = SeatMap::grid(1, 3);
    seats.occupy(0, ParticipantId{99});
    seats.occupy(2, ParticipantId{98});
    const AssignmentResult res =
        assign_seats_optimal(seats, {{ParticipantId{1}, {0, 0, 0}}});
    ASSERT_EQ(res.assignments.size(), 1u);
    EXPECT_EQ(res.assignments[0].seat_index, 1u);
}

TEST(SeatAssignmentTest, EmptyRequestsNoop) {
    const SeatMap seats = SeatMap::grid(2, 2);
    const AssignmentResult res = assign_seats_optimal(seats, {});
    EXPECT_TRUE(res.assignments.empty());
    EXPECT_TRUE(res.unseated.empty());
}

// ----------------------------------------------------------------- retarget

avatar::AvatarState make_state(const math::Pose& root) {
    avatar::AvatarState s;
    s.participant = ParticipantId{1};
    s.root.pose = root;
    s.body.head = {root.position + math::Vec3{0, 0.65, 0}, root.orientation};
    s.body.left_hand = {root.position + math::Vec3{-0.25, 0.35, 0}, root.orientation};
    s.body.right_hand = {root.position + math::Vec3{0.25, 0.35, 0}, root.orientation};
    return s;
}

TEST(RetargetTest, UnboundReturnsNullopt) {
    const PoseRetargeter rt;
    EXPECT_FALSE(rt.retarget(make_state({})).has_value());
}

TEST(RetargetTest, AnchorMapsExactlyToSeat) {
    PoseRetargeter rt;
    const math::Pose anchor{{10, 0, 5}, math::Quat::from_axis_angle(math::Vec3::unit_y(), 0.3)};
    const math::Pose seat{{-2, 0, 3}, math::Quat::identity()};
    rt.bind(ParticipantId{1}, anchor, seat);
    const auto out = rt.retarget(make_state(anchor));
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(math::approx_equal(out->root.pose.position, seat.position, 1e-9));
    EXPECT_NEAR(math::angular_distance(out->root.pose.orientation, seat.orientation), 0.0,
                1e-9);
}

TEST(RetargetTest, LocalMotionPreserved) {
    PoseRetargeter rt;
    const math::Pose anchor{{10, 0, 5}, math::Quat::identity()};
    const math::Pose seat{{0, 0, 0},
                          math::Quat::from_axis_angle(math::Vec3::unit_y(), 1.5707963)};
    rt.bind(ParticipantId{1}, anchor, seat);
    // Lean 0.3 m forward (-z) in the source frame.
    math::Pose leaned = anchor;
    leaned.position += math::Vec3{0, 0, -0.3};
    const auto out = rt.retarget(make_state(leaned));
    ASSERT_TRUE(out.has_value());
    // The seat frame is rotated 90 deg about y: local -z becomes world -x.
    EXPECT_NEAR(out->root.pose.position.distance_to(seat.position), 0.3, 1e-6);
    EXPECT_NEAR(out->root.pose.position.x, -0.3, 1e-6);
}

TEST(RetargetTest, HeadOffsetSurvives) {
    PoseRetargeter rt;
    const math::Pose anchor{{4, 0, 4}, math::Quat::identity()};
    const math::Pose seat{{1, 0, 1}, math::Quat::identity()};
    rt.bind(ParticipantId{1}, anchor, seat);
    const auto out = rt.retarget(make_state(anchor));
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(math::approx_equal(out->body.head.position - out->root.pose.position,
                                   {0, 0.65, 0}, 1e-9));
}

TEST(RetargetTest, RoamClampedToSeatRadius) {
    RetargetParams params;
    params.roam_radius_m = 0.5;
    PoseRetargeter rt{params};
    const math::Pose anchor{{0, 0, 0}, math::Quat::identity()};
    const math::Pose seat{{2, 0, 2}, math::Quat::identity()};
    rt.bind(ParticipantId{1}, anchor, seat);
    // Walk 3 m away in the source room.
    math::Pose walked = anchor;
    walked.position += math::Vec3{3, 0, 0};
    const auto out = rt.retarget(make_state(walked));
    ASSERT_TRUE(out.has_value());
    const math::Vec3 offset = out->root.pose.position - seat.position;
    EXPECT_LE(math::Vec3(offset.x, 0, offset.z).norm(), 0.5 + 1e-9);
    EXPECT_GT(rt.clamped(), 0u);
}

TEST(RetargetTest, VelocityRotatedIntoSeatFrame) {
    PoseRetargeter rt;
    const math::Pose anchor{{0, 0, 0}, math::Quat::identity()};
    const math::Pose seat{{0, 0, 0},
                          math::Quat::from_axis_angle(math::Vec3::unit_y(), 3.14159265)};
    rt.bind(ParticipantId{1}, anchor, seat);
    avatar::AvatarState s = make_state(anchor);
    s.root.linear_velocity = {1, 0, 0};
    const auto out = rt.retarget(s);
    ASSERT_TRUE(out.has_value());
    EXPECT_NEAR(out->root.linear_velocity.x, -1.0, 1e-6);
}

TEST(RetargetTest, UnbindForgets) {
    PoseRetargeter rt;
    rt.bind(ParticipantId{1}, {}, {});
    EXPECT_TRUE(rt.bound(ParticipantId{1}));
    rt.unbind(ParticipantId{1});
    EXPECT_FALSE(rt.bound(ParticipantId{1}));
}

// --------------------------------------------------------------- EdgeServer

struct EdgePairFixture : ::testing::Test {
    sim::Simulator sim{71};
    net::Network net{sim};
    net::WanTopology wan;
    net::NodeId node_a = net.add_node("edge-a", net::Region::HongKong);
    net::NodeId node_b = net.add_node("edge-b", net::Region::Guangzhou);
    EdgeServer server_a{net, node_a, config("a", 1), SeatMap::grid(3, 3)};
    EdgeServer server_b{net, node_b, config("b", 2), SeatMap::grid(3, 3)};

    static EdgeServerConfig config(const std::string& name, std::uint32_t room) {
        EdgeServerConfig c;
        c.name = name;
        c.room = ClassroomId{room};
        return c;
    }

    void SetUp() override {
        net.connect_wan(node_a, node_b, wan);
        server_a.add_peer(node_b);
        server_b.add_peer(node_a);
    }

    /// Feed clean headset samples for `who` in room A moving on a circle.
    void drive_participant(ParticipantId who, double seconds) {
        for (double t = 0.0; t < seconds; t += 1.0 / 90.0) {
            sensing::SensorSample s;
            s.participant = who;
            s.captured_at = sim::Time::seconds(t);
            s.source = sensing::SensorSource::Headset;
            s.pose.position = {std::cos(t), 0.0, 2.0 + std::sin(t)};
            s.expression.assign(4, 0.5);
            sim.schedule_at(sim::Time::seconds(t), [this, s] {
                server_a.ingest_sample(sensing::SensorSample{s});
            });
        }
    }
};

TEST_F(EdgePairFixture, RemoteAvatarAppearsAndGetsSeat) {
    server_a.add_local_participant(ParticipantId{1}, 0);
    drive_participant(ParticipantId{1}, 3.0);
    server_a.start();
    server_b.start();
    sim.run_until(sim::Time::seconds(3));

    const auto remotes = server_b.remote_participants();
    ASSERT_EQ(remotes.size(), 1u);
    EXPECT_EQ(*remotes.begin(), ParticipantId{1});
    EXPECT_EQ(server_b.seats().vacant_count(), 8u);  // one seat taken
    EXPECT_TRUE(server_b.seats().seat_of(ParticipantId{1}).has_value());
    EXPECT_GT(server_b.avatar_packets_in(), 0u);
}

TEST_F(EdgePairFixture, DisplayedAvatarSitsAtAssignedSeat) {
    server_a.add_local_participant(ParticipantId{1}, 0);
    drive_participant(ParticipantId{1}, 5.0);
    server_a.start();
    server_b.start();
    sim.run_until(sim::Time::seconds(5));

    const auto seat_index = server_b.seats().seat_of(ParticipantId{1});
    ASSERT_TRUE(seat_index.has_value());
    const math::Pose seat = server_b.seats().seat(*seat_index).pose;
    const auto shown = server_b.display_remote(ParticipantId{1}, sim.now());
    ASSERT_TRUE(shown.has_value());
    // The circling participant stays within the roam radius of the seat.
    const math::Vec3 offset = shown->root.pose.position - seat.position;
    EXPECT_LE(math::Vec3(offset.x, 0, offset.z).norm(), 1.2 + 1e-6);
}

TEST_F(EdgePairFixture, DisplayLatencyIsBounded) {
    server_a.add_local_participant(ParticipantId{1}, 0);
    drive_participant(ParticipantId{1}, 5.0);
    server_a.start();
    server_b.start();
    sim.run_until(sim::Time::seconds(5));

    const auto shown = server_b.display_remote(ParticipantId{1}, sim.now());
    ASSERT_TRUE(shown.has_value());
    const double latency_ms = (sim.now() - shown->captured_at).to_ms();
    // CWB-GZ one-way ~4 ms + jitter buffer: far below the 100 ms budget.
    EXPECT_LT(latency_ms, 80.0);
    EXPECT_GT(latency_ms, 0.0);
}

TEST_F(EdgePairFixture, LocalStateRequiresFreshSamples) {
    server_a.add_local_participant(ParticipantId{1}, 0);
    EXPECT_FALSE(server_a.local_state(ParticipantId{1}, sim.now()).has_value());
    drive_participant(ParticipantId{1}, 1.0);
    server_a.start();
    server_b.start();
    sim.run_until(sim::Time::seconds(1));
    EXPECT_TRUE(server_a.local_state(ParticipantId{1}, sim.now()).has_value());
    // 2 s after the last sample the track is stale.
    sim.run_until(sim::Time::seconds(3));
    EXPECT_FALSE(server_a.local_state(ParticipantId{1}, sim.now()).has_value());
}

TEST_F(EdgePairFixture, RemoveLocalVacatesSeatAndStopsStream) {
    server_a.add_local_participant(ParticipantId{1}, 4);
    EXPECT_EQ(server_a.seats().vacant_count(), 8u);
    server_a.remove_local_participant(ParticipantId{1});
    EXPECT_EQ(server_a.seats().vacant_count(), 9u);
    EXPECT_EQ(server_a.local_count(), 0u);
}

TEST_F(EdgePairFixture, ReservedSeatSurvivesArrivalRace) {
    // Tiny destination room: 2 seats. Reserve one for participant 3, then
    // flood with participants 1 and 2 whose streams arrive first.
    EdgeServer tiny{net, net.add_node("tiny2", net::Region::Guangzhou),
                    config("tiny2", 4), SeatMap::grid(1, 2)};
    net.connect_wan(node_a, tiny.node(), wan);
    server_a.add_peer(tiny.node());

    const auto reserved = tiny.reserve_seat(ParticipantId{3});
    ASSERT_TRUE(reserved.has_value());
    // Idempotent: reserving again returns the same seat.
    EXPECT_EQ(tiny.reserve_seat(ParticipantId{3}), reserved);

    for (std::uint32_t i = 1; i <= 3; ++i) {
        server_a.add_local_participant(ParticipantId{i});
        drive_participant(ParticipantId{i}, 3.0);
    }
    server_a.start();
    tiny.start();
    sim.run_until(sim::Time::seconds(3));

    // Participant 3 holds the reserved seat; only one of 1/2 found a seat.
    EXPECT_EQ(tiny.seats().seat_of(ParticipantId{3}), reserved);
    EXPECT_TRUE(tiny.display_remote(ParticipantId{3}, sim.now()).has_value());
    EXPECT_EQ(tiny.seats().vacant_count(), 0u);
    EXPECT_GT(tiny.seats_exhausted(), 0u);

    // Room now full: further reservations fail.
    EXPECT_FALSE(tiny.reserve_seat(ParticipantId{9}).has_value());
}

TEST_F(EdgePairFixture, LinkOutageRecoversViaKeyframes) {
    server_a.add_local_participant(ParticipantId{1}, 0);
    drive_participant(ParticipantId{1}, 12.0);
    server_a.start();
    server_b.start();
    sim.run_until(sim::Time::seconds(3));
    ASSERT_TRUE(server_b.display_remote(ParticipantId{1}, sim.now()).has_value());

    // Total outage: every packet on the CWB->GZ link is lost for 3 s.
    net::Link* link = net.link(node_a, node_b);
    ASSERT_NE(link, nullptr);
    net::LinkParams broken = link->params();
    broken.loss = 1.0;
    const net::LinkParams healthy = link->params();
    link->set_params(broken);
    sim.run_until(sim::Time::seconds(6));

    // The displayed avatar has gone stale: its capture timestamp lags far
    // behind now (the jitter buffer can only extrapolate briefly).
    {
        const auto shown = server_b.display_remote(ParticipantId{1}, sim.now());
        ASSERT_TRUE(shown.has_value());
        EXPECT_GT((sim.now() - shown->captured_at).to_ms(), 1000.0);
    }

    // Heal the link; keyframes resynchronize the replica within ~2 s even
    // though the delta chain was broken by the gap.
    link->set_params(healthy);
    sim.run_until(sim::Time::seconds(9));
    {
        const auto shown = server_b.display_remote(ParticipantId{1}, sim.now());
        ASSERT_TRUE(shown.has_value());
        EXPECT_LT((sim.now() - shown->captured_at).to_ms(), 100.0);
        // And the pose is coherent again: within the roam radius of the seat.
        const auto seat_index = server_b.seats().seat_of(ParticipantId{1});
        ASSERT_TRUE(seat_index.has_value());
        const math::Vec3 offset = shown->root.pose.position -
                                  server_b.seats().seat(*seat_index).pose.position;
        EXPECT_LT(math::Vec3(offset.x, 0, offset.z).norm(), 1.5);
    }
}

TEST_F(EdgePairFixture, AsymmetricDegradationOnlyAffectsOneDirection) {
    server_a.add_local_participant(ParticipantId{1}, 0);
    server_b.add_local_participant(ParticipantId{2}, 0);
    drive_participant(ParticipantId{1}, 10.0);
    // Drive participant 2 from room B symmetrically.
    for (double t = 0.0; t < 10.0; t += 1.0 / 90.0) {
        sensing::SensorSample s;
        s.participant = ParticipantId{2};
        s.captured_at = sim::Time::seconds(t);
        s.source = sensing::SensorSource::Headset;
        s.pose.position = {std::sin(t), 0.0, 2.0 + std::cos(t)};
        sim.schedule_at(sim::Time::seconds(t), [this, s] {
            server_b.ingest_sample(sensing::SensorSample{s});
        });
    }
    server_a.start();
    server_b.start();
    sim.run_until(sim::Time::seconds(3));

    // Degrade only A->B.
    net::Link* ab = net.link(node_a, node_b);
    net::LinkParams bad = ab->params();
    bad.loss = 1.0;
    ab->set_params(bad);
    sim.run_until(sim::Time::seconds(8));

    const auto b_view = server_b.display_remote(ParticipantId{1}, sim.now());
    const auto a_view = server_a.display_remote(ParticipantId{2}, sim.now());
    ASSERT_TRUE(b_view.has_value());
    ASSERT_TRUE(a_view.has_value());
    EXPECT_GT((sim.now() - b_view->captured_at).to_ms(), 1000.0);  // stale
    EXPECT_LT((sim.now() - a_view->captured_at).to_ms(), 100.0);   // healthy
}

TEST_F(EdgePairFixture, SeatsExhaustionCounted) {
    // Tiny destination room: 1 seat, 3 remote participants.
    EdgeServer tiny{net, net.add_node("tiny", net::Region::Guangzhou),
                    config("tiny", 3), SeatMap::grid(1, 1)};
    net.connect_wan(node_a, tiny.node(), wan);
    server_a.add_peer(tiny.node());
    for (std::uint32_t i = 1; i <= 3; ++i) {
        server_a.add_local_participant(ParticipantId{i});
        drive_participant(ParticipantId{i}, 2.0);
    }
    server_a.start();
    tiny.start();
    sim.run_until(sim::Time::seconds(2));
    EXPECT_GT(tiny.seats_exhausted(), 0u);
    EXPECT_EQ(tiny.seats().vacant_count(), 0u);
}

}  // namespace
}  // namespace mvc::edge
