// Integration tests across the whole stack: the MetaverseClassroom blueprint
// running the paper's unit case (2 MR classrooms + VR cloud classroom),
// checking latency budgets, seat handling, traffic shape, determinism,
// the regional-mesh option, and one payload box carrying each avatar update
// from edge to client.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/classroom.hpp"
#include "sync/wire.hpp"

namespace mvc::core {
namespace {

ClassroomConfig small_config(std::uint64_t seed = 7) {
    ClassroomConfig config;
    config.seed = seed;
    return config;
}

struct RunResult {
    ClassReport report;
    std::size_t remote_seen_in_room0{0};
};

RunResult run_small_class(const ClassroomConfig& config, double seconds = 20.0,
                          int cwb_students = 3, int gz_students = 2,
                          int remote_students = 2) {
    MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    for (int i = 0; i < cwb_students; ++i) classroom.add_physical_student(0);
    for (int i = 0; i < gz_students; ++i) classroom.add_physical_student(1);
    for (int i = 0; i < remote_students; ++i) {
        classroom.add_remote_student(i % 2 == 0 ? net::Region::Seoul
                                                : net::Region::Boston);
    }
    classroom.start();
    classroom.run_for(sim::Time::seconds(seconds));
    RunResult out;
    out.report = classroom.report();
    out.remote_seen_in_room0 = classroom.edge_server(0).remote_participants().size();
    return out;
}

TEST(MetaverseClassroomTest, DefaultBuildIsTwoCampusesPlusCloud) {
    MetaverseClassroom classroom{small_config()};
    EXPECT_EQ(classroom.room_count(), 2u);
    // Nodes: 2 edges + cloud.
    EXPECT_EQ(classroom.network().node_count(), 3u);
}

TEST(MetaverseClassroomTest, CrossCampusLatencyUnderBudget) {
    const RunResult r = run_small_class(small_config());
    ASSERT_GT(r.report.mr_cross_campus_ms.count(), 0u);
    // The paper's interactivity requirement: under 100 ms; CWB-GZ should be
    // far under.
    EXPECT_LT(r.report.mr_cross_campus_ms.p95(), 100.0);
    EXPECT_LT(r.report.mr_cross_campus_ms.median(), 50.0);
}

TEST(MetaverseClassroomTest, EveryPhysicalParticipantAppearsRemotely) {
    ClassroomConfig config = small_config();
    MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    const auto s1 = classroom.add_physical_student(0);
    const auto s2 = classroom.add_physical_student(1);
    classroom.start();
    classroom.run_for(sim::Time::seconds(10));
    // GZ (room 1) must host avatars of the CWB instructor + student.
    const auto in_gz = classroom.edge_server(1).remote_participants();
    EXPECT_EQ(in_gz.size(), 2u);
    // CWB hosts the GZ student's avatar.
    const auto in_cwb = classroom.edge_server(0).remote_participants();
    ASSERT_EQ(in_cwb.size(), 1u);
    EXPECT_EQ(*in_cwb.begin(), s2);
    // And each remote avatar received a seat.
    EXPECT_TRUE(classroom.edge_server(0).seats().seat_of(s2).has_value());
    EXPECT_TRUE(classroom.edge_server(1).seats().seat_of(s1).has_value());
}

TEST(MetaverseClassroomTest, RemoteVrStudentsVisibleInPhysicalRooms) {
    const RunResult r = run_small_class(small_config(), 20.0, 2, 1, 3);
    // Room 0 sees: 1 GZ student + 3 VR students = 4 remote avatars.
    EXPECT_EQ(r.remote_seen_in_room0, 4u);
}

TEST(MetaverseClassroomTest, VrClientsReceiveClassStreams) {
    ClassroomConfig config = small_config();
    MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    classroom.add_physical_student(0);
    const auto remote = classroom.add_remote_student(net::Region::Seoul);
    classroom.start();
    classroom.run_for(sim::Time::seconds(10));
    EXPECT_GT(classroom.remote_client(remote).updates_received(), 0u);
    // The VR client reconstructs the instructor's avatar.
    EXPECT_GE(classroom.remote_client(remote).visible_peers(), 1u);
}

TEST(MetaverseClassroomTest, AvatarTrafficBoundedAndCounted) {
    const RunResult r = run_small_class(small_config());
    EXPECT_GT(r.report.avatar_bytes, 0u);
    EXPECT_GE(r.report.total_bytes, r.report.avatar_bytes);
    // 8 participants for 20 s: avatar sync must stay far below a single
    // 2.5 Mbit/s video stream's volume (~6.25 MB over the window).
    EXPECT_LT(r.report.avatar_bytes, 6'250'000u);
}

TEST(MetaverseClassroomTest, DeterministicAcrossRunsWithSameSeed) {
    const RunResult a = run_small_class(small_config(123), 10.0);
    const RunResult b = run_small_class(small_config(123), 10.0);
    EXPECT_EQ(a.report.avatar_bytes, b.report.avatar_bytes);
    EXPECT_EQ(a.report.mr_cross_campus_ms.count(), b.report.mr_cross_campus_ms.count());
    EXPECT_DOUBLE_EQ(a.report.mr_cross_campus_ms.mean(),
                     b.report.mr_cross_campus_ms.mean());
}

TEST(MetaverseClassroomTest, DifferentSeedsDiffer) {
    const RunResult a = run_small_class(small_config(123), 10.0);
    const RunResult b = run_small_class(small_config(456), 10.0);
    EXPECT_NE(a.report.avatar_bytes, b.report.avatar_bytes);
}

TEST(MetaverseClassroomTest, RegionalMeshServesRemoteStudents) {
    ClassroomConfig config = small_config();
    config.regional_mesh = true;
    MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    const auto r1 = classroom.add_remote_student(net::Region::Boston);
    const auto r2 = classroom.add_remote_student(net::Region::Boston);
    classroom.start();
    classroom.run_for(sim::Time::seconds(10));
    // Boston pair exchanges through the local relay.
    EXPECT_GT(classroom.remote_client(r1).updates_received(), 0u);
    EXPECT_GT(classroom.remote_client(r2).updates_received(), 0u);
}

TEST(MetaverseClassroomTest, HandRaisesProduceSessionEvents) {
    ClassroomConfig config = small_config();
    MetaverseClassroom classroom{config};
    for (int i = 0; i < 5; ++i) classroom.add_physical_student(0);
    classroom.start();
    classroom.run_for(sim::Time::seconds(120));
    EXPECT_GT(classroom.class_session().event_count(session::InteractionKind::HandRaise),
              0u);
    EXPECT_GT(classroom.report().participation_ratio, 0.0);
}

TEST(MetaverseClassroomTest, GroundTruthOnlyForPhysical) {
    ClassroomConfig config = small_config();
    MetaverseClassroom classroom{config};
    const auto phys = classroom.add_physical_student(0);
    const auto remote = classroom.add_remote_student(net::Region::Seoul);
    classroom.start();
    classroom.run_for(sim::Time::seconds(1));
    EXPECT_TRUE(classroom.ground_truth(phys, classroom.simulator().now()).has_value());
    EXPECT_FALSE(classroom.ground_truth(remote, classroom.simulator().now()).has_value());
}

TEST(MetaverseClassroomTest, DisplayedRemoteTracksGroundTruthMotion) {
    // The retargeted avatar in room 1 must reproduce the *relative* motion
    // of the tracked participant in room 0 (same displacement magnitudes).
    ClassroomConfig config = small_config();
    MetaverseClassroom classroom{config};
    const auto who = classroom.add_physical_student(0);
    classroom.start();
    classroom.run_for(sim::Time::seconds(5));

    auto& room1 = classroom.edge_server(1);
    const auto seat_index = room1.seats().seat_of(who);
    ASSERT_TRUE(seat_index.has_value());
    const math::Vec3 seat_pos = room1.seats().seat(*seat_index).pose.position;

    // Track displayed offsets over 5 more seconds; the seated sway is ~5 cm,
    // so displayed motion must stay within centimetres of the seat.
    double max_offset = 0.0;
    for (int i = 0; i < 50; ++i) {
        classroom.run_for(sim::Time::ms(100));
        const auto shown = room1.display_remote(who, classroom.simulator().now());
        ASSERT_TRUE(shown.has_value());
        max_offset = std::max(max_offset,
                              shown->root.pose.position.distance_to(seat_pos));
    }
    EXPECT_LT(max_offset, 0.4);
    EXPECT_GT(max_offset, 0.001);  // it does move
}

TEST(MetaverseClassroomTest, RoomCapacityEnforced) {
    ClassroomConfig config = small_config();
    config.rooms = {cwb_room_config()};
    config.rooms[0].seat_rows = 1;
    config.rooms[0].seat_cols = 2;
    MetaverseClassroom classroom{config};
    classroom.add_physical_student(0);
    classroom.add_physical_student(0);
    EXPECT_THROW(classroom.add_physical_student(0), std::runtime_error);
}

TEST(MetaverseClassroomTest, StopHaltsTraffic) {
    ClassroomConfig config = small_config();
    MetaverseClassroom classroom{config};
    classroom.add_physical_student(0);
    classroom.add_physical_student(1);
    classroom.start();
    classroom.run_for(sim::Time::seconds(5));
    classroom.stop();
    const std::uint64_t bytes_at_stop = classroom.network().total_bytes_sent();
    classroom.run_for(sim::Time::seconds(5));
    EXPECT_EQ(classroom.network().total_bytes_sent(), bytes_at_stop);
}

TEST(MetaverseClassroomTest, ReportSummaryMentionsKeyFields) {
    const RunResult r = run_small_class(small_config(), 10.0);
    const std::string s = r.report.summary();
    EXPECT_NE(s.find("participants"), std::string::npos);
    EXPECT_NE(s.find("avatar bytes"), std::string::npos);
    EXPECT_NE(s.find("cross-campus"), std::string::npos);
}

TEST(EventBusTest, HandRaisesVisibleAcrossCampusesOnSyncedClocks) {
    ClassroomConfig config = small_config();
    MetaverseClassroom classroom{config};
    for (int i = 0; i < 6; ++i) classroom.add_physical_student(0);
    for (int i = 0; i < 4; ++i) classroom.add_physical_student(1);
    classroom.start();
    classroom.run_for(sim::Time::seconds(120));
    const ClassReport r = classroom.report();
    ASSERT_GT(r.event_visibility_ms.count(), 0u);
    // CWB-GZ one-way is ~4 ms; clock-sync error adds sub-millisecond noise.
    // The injected boot offsets are hundreds of ms, so any gross sync
    // failure would blow this bound immediately.
    EXPECT_GT(r.event_visibility_ms.median(), 0.0);
    EXPECT_LT(r.event_visibility_ms.p95(), 30.0);
    EXPECT_LT(r.clock_sync_error_ms, 5.0);
}

TEST(EventBusTest, DisabledBusRecordsNothing) {
    ClassroomConfig config = small_config();
    config.event_bus = false;
    MetaverseClassroom classroom{config};
    for (int i = 0; i < 4; ++i) classroom.add_physical_student(0);
    classroom.add_physical_student(1);
    classroom.start();
    classroom.run_for(sim::Time::seconds(60));
    const ClassReport r = classroom.report();
    EXPECT_EQ(r.event_visibility_ms.count(), 0u);
    EXPECT_DOUBLE_EQ(r.clock_sync_error_ms, 0.0);
}

TEST(GuestSpeakerTest, SpeakerVisibleEverywhereWithRole) {
    ClassroomConfig config = small_config();
    MetaverseClassroom classroom{config};
    classroom.add_physical_student(0);
    const auto guest = classroom.add_guest_speaker(net::Region::London, "dr-visitor");
    classroom.start();
    classroom.run_for(sim::Time::seconds(10));

    const auto* enrolled = classroom.class_session().find(guest);
    ASSERT_NE(enrolled, nullptr);
    EXPECT_EQ(enrolled->role, session::Role::GuestSpeaker);
    EXPECT_EQ(enrolled->name, "dr-visitor");
    // The guest's avatar takes a seat in both MR rooms.
    EXPECT_TRUE(classroom.edge_server(0).seats().seat_of(guest).has_value());
    EXPECT_TRUE(classroom.edge_server(1).seats().seat_of(guest).has_value());
    // Guests gesture a lot: their stream actually flows.
    EXPECT_GT(classroom.remote_client(guest).updates_sent(), 30u);
}

TEST(MediaBridgeTest, LectureMediaReachesTheOtherCampus) {
    ClassroomConfig config = small_config();
    MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    classroom.add_physical_student(1);
    classroom.enable_lecture_media(0);
    classroom.start();
    classroom.run_for(sim::Time::seconds(15));
    const ClassReport r = classroom.report();
    ASSERT_TRUE(r.media_enabled);
    EXPECT_GT(r.media_bytes, 1'000'000u);  // ~3.5 Mbit/s for 15 s
    // CWB->GZ is a clean short path: the camera arrives at near-encode
    // quality and lip sync stays inside tolerance.
    EXPECT_GT(r.media_worst_camera_db, 30.0);
    EXPECT_LT(std::abs(r.media_av_skew_p95_ms), 45.0);
}

TEST(MediaBridgeTest, VisemesArriveAtDestinations) {
    ClassroomConfig config = small_config();
    MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    classroom.enable_lecture_media(0);
    classroom.start();
    classroom.run_for(sim::Time::seconds(10));
    auto& bridge = classroom.media_bridge();
    ASSERT_EQ(bridge.destination_count(), 1u);  // the GZ room
    (void)classroom.report();  // finishes receiver accounting
    EXPECT_GT(bridge.sink(0).audio_frames, 400u);  // 20 ms frames for 10 s
    EXPECT_EQ(bridge.sink(0).camera.frames_missed, 0u);
}

TEST(MediaBridgeTest, MediaCountsSeparatelyFromAvatarTraffic) {
    ClassroomConfig config = small_config();
    MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    classroom.add_physical_student(1);
    classroom.enable_lecture_media(0);
    classroom.start();
    classroom.run_for(sim::Time::seconds(10));
    const ClassReport r = classroom.report();
    // Avatar bytes stay tiny next to the video bytes (the E2 claim inside
    // the integrated system).
    EXPECT_LT(r.avatar_bytes, r.media_bytes / 5);
    EXPECT_GT(r.total_bytes, r.media_bytes);  // total includes both
}

TEST(MediaBridgeTest, EnableAfterStartThrows) {
    MetaverseClassroom classroom{small_config()};
    classroom.add_instructor(0);
    classroom.start();
    EXPECT_THROW(classroom.enable_lecture_media(0), std::logic_error);
}

TEST(MetaverseClassroomTest, SingleRoomConfigWorks) {
    ClassroomConfig config = small_config();
    config.rooms = {cwb_room_config()};
    MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    const auto remote = classroom.add_remote_student(net::Region::London);
    classroom.start();
    classroom.run_for(sim::Time::seconds(10));
    EXPECT_GT(classroom.remote_client(remote).updates_received(), 0u);
    EXPECT_EQ(classroom.edge_server(0).remote_participants().size(), 1u);
}

// ---------------------------------------------------- one box per update

/// Where each avatar packet's record bytes sit, per update and hop.
class RecordAddressTap final : public net::PacketTap {
public:
    struct Hop {
        std::string from;
        const std::uint8_t* bytes;
    };
    struct Update {
        bool spilled{false};
        std::vector<Hop> hops;
    };

    explicit RecordAddressTap(const net::Network& net) : net_(net) {}
    void on_send(const net::Packet& p, net::Priority) override {
        if (p.flow != sync::kAvatarFlow) return;
        const auto& w = p.payload.get<sync::AvatarWire>();
        Update& u = updates[{w.participant.value(), w.seq, w.captured_at.nanos()}];
        u.spilled = w.bytes.size() > sync::AvatarBytes::kInlineCapacity;
        u.hops.push_back(Hop{net_.name_of(p.src), w.bytes.data()});
    }

    std::map<std::tuple<std::uint32_t, std::uint32_t, std::int64_t>, Update> updates;

private:
    const net::Network& net_;
};

TEST(OneBoxTest, SpilledRecordKeepsOneAddressFromEdgeToClient) {
    ClassroomConfig config;
    config.seed = 29;
    config.regional_mesh = true;
    MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    for (int i = 0; i < 3; ++i) {
        classroom.add_physical_student(0);
        classroom.add_physical_student(1);
    }
    classroom.add_remote_student(net::Region::Seoul);
    classroom.add_remote_student(net::Region::London);
    RecordAddressTap tap{classroom.network()};
    classroom.network().set_tap(&tap);
    classroom.start();
    classroom.run_for(sim::Time::seconds(2.0));
    classroom.network().set_tap(nullptr);

    // Every hop of an update (edge, cloud, relay) sends the bytes the first
    // box holds; the client reads them from the same box.
    std::size_t edge_to_client = 0;
    for (const auto& [key, u] : tap.updates) {
        for (const RecordAddressTap::Hop& hop : u.hops)
            EXPECT_EQ(hop.bytes, u.hops.front().bytes) << "hop from " << hop.from;
        const auto sent_by = [&u](std::string_view prefix) {
            return std::any_of(u.hops.begin(), u.hops.end(), [prefix](const auto& hop) {
                return hop.from.starts_with(prefix);
            });
        };
        if (u.spilled && sent_by("edge-") && sent_by("cloud") && sent_by("relay-"))
            ++edge_to_client;
    }
    EXPECT_GT(edge_to_client, 0u);
}

}  // namespace
}  // namespace mvc::core
