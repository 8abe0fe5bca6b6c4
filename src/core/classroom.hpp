#pragma once
// MetaverseClassroom: the paper's blueprint, assembled. One call site builds
// the whole Figure-3 deployment — N physical MR classrooms (default two:
// HKUST CWB and GZ), each with WiFi-connected headsets, wired room sensors
// and an edge server, plus the cloud-hosted VR classroom serving remote
// attendees — wires them over the WAN, runs a class session, and reports
// latency / traffic / engagement metrics.
//
// This is the library's primary public API; examples/ and most benches build
// on it.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_server.hpp"
#include "cloud/relay.hpp"
#include "cloud/vr_client.hpp"
#include "core/media_bridge.hpp"
#include "edge/edge_server.hpp"
#include "net/wifi.hpp"
#include "sync/clock.hpp"
#include "sensing/headset.hpp"
#include "sensing/room_sensors.hpp"
#include "session/behaviour.hpp"
#include "session/session.hpp"

namespace mvc::replay {
class Recorder;
}

namespace mvc::core {

struct PhysicalRoomConfig {
    std::string name{"classroom"};
    net::Region region{net::Region::HongKong};
    std::size_t seat_rows{5};
    std::size_t seat_cols{6};
    net::WifiParams wifi{};
    sensing::HeadsetParams headset{};  // filled from tethered_mr defaults
    sensing::RoomSensorParams room_sensors{};
    edge::EdgeServerConfig edge{};     // room/name assigned by the builder
    /// Wired sensor backhaul latency to the edge server.
    sim::Time sensor_wire_latency{sim::Time::us(300)};
};

/// Defaults shaped like the unit case in §3.1: CWB + GZ campuses.
[[nodiscard]] PhysicalRoomConfig cwb_room_config();
[[nodiscard]] PhysicalRoomConfig gz_room_config();

struct ClassroomConfig {
    std::uint64_t seed{42};
    std::string course{"COMP4971: Metaverse Systems"};
    std::vector<PhysicalRoomConfig> rooms{};  // empty => {CWB, GZ}
    net::Region cloud_region{net::Region::HongKong};
    cloud::CloudServerConfig cloud{};
    /// Use regional relay servers for remote clients instead of direct
    /// connections to the origin cloud.
    bool regional_mesh{false};
    cloud::VrClientConfig vr_client{};
    /// Remote clients skip full avatar reconstruction (latency-only), for
    /// large-scale runs.
    bool lightweight_remote_clients{false};
    /// Rate of the cross-room display probes that feed latency metrics.
    double probe_rate_hz{10.0};
    /// Stream the teaching room's camera/slides/audio to the other rooms
    /// (enabled via enable_lecture_media()).
    MediaBridgeConfig media{};
    /// Propagate interaction events (hand raises, ...) between classrooms
    /// with clock-synchronized timestamps; feeds event-visibility metrics.
    bool event_bus{true};
    /// Per-room clock imperfection injected when the event bus is on:
    /// 1-sigma skew (ppm) and boot offset (ms) drawn per room.
    double clock_skew_ppm_sigma{50.0};
    double clock_offset_ms_sigma{500.0};
    /// Peer liveness probing applied to every edge server and the cloud.
    /// When enabled, edges fail avatar streams over to the cloud relay while
    /// a direct peer link is dead, and degrade gracefully under loss.
    fault::HeartbeatParams heartbeat{};
    fault::DegradationParams degradation{};
    /// Crash recovery applied to every edge server and the cloud: periodic
    /// checkpoints into the classroom-owned CheckpointStore (the `store`
    /// field is filled by the builder), restart restoration and peer resync.
    /// Edge checkpoints also carry session membership + content.
    recovery::RecoveryParams recovery{};
    /// Overload admission control applied to every edge server and the cloud.
    recovery::AdmissionParams admission{};
};

/// Aggregated end-of-run report.
struct ClassReport {
    std::size_t physical_participants{0};
    std::size_t remote_participants{0};
    /// Cross-classroom end-to-end latency (capture -> displayable), ms.
    math::SampleSeries mr_display_latency_ms;
    /// Same, restricted to physical-campus sources (the CWB<->GZ pair).
    math::SampleSeries mr_cross_campus_ms;
    /// Same, restricted to remote-VR-origin avatars shown in MR rooms.
    math::SampleSeries mr_remote_origin_ms;
    /// Remote (VR client) end-to-end latency, ms.
    math::SampleSeries vr_display_latency_ms;
    /// Total avatar bytes on the wire / total bytes overall.
    std::uint64_t avatar_bytes{0};
    std::uint64_t total_bytes{0};
    double wifi_utilization_max{0.0};
    double participation_ratio{0.0};
    std::uint64_t seats_exhausted{0};
    /// Cross-room interaction-event visibility lag (detection at the source
    /// room -> delivery at the other rooms), measured on synchronized time.
    math::SampleSeries event_visibility_ms;
    /// Worst cross-room clock-sync estimation error observed (ms).
    double clock_sync_error_ms{0.0};
    /// Lecture media (when enabled): wire bytes, worst delivered camera
    /// quality across rooms, and p95 A/V skew.
    bool media_enabled{false};
    std::uint64_t media_bytes{0};
    double media_worst_camera_db{0.0};
    double media_av_skew_p95_ms{0.0};

    [[nodiscard]] std::string summary() const;
};

class MetaverseClassroom {
public:
    explicit MetaverseClassroom(ClassroomConfig config = {});

    MetaverseClassroom(const MetaverseClassroom&) = delete;
    MetaverseClassroom& operator=(const MetaverseClassroom&) = delete;

    // ------------------------------------------------------------ enrolment
    /// Student physically present in room `room_index`, auto-seated.
    ParticipantId add_physical_student(std::size_t room_index,
                                       comfort::UserProfile profile = {});
    /// Instructor teaching from room `room_index` (paces the lectern area).
    ParticipantId add_instructor(std::size_t room_index);
    /// Remote attendee joining the VR classroom from `region`.
    ParticipantId add_remote_student(net::Region region,
                                     comfort::UserProfile profile = {});
    /// Outside guest (e.g. an invited speaker) joining through the VR
    /// classroom: same transport as a remote student, but enrolled with the
    /// GuestSpeaker role and an animated, speech-heavy behaviour.
    ParticipantId add_guest_speaker(net::Region region, std::string name = {});

    /// Stream the lecture media (camera + slides + audio) from
    /// `teaching_room` to every other room. Call before start(). The audio
    /// voice activity follows the instructor's speaking pattern.
    void enable_lecture_media(std::size_t teaching_room);
    [[nodiscard]] bool lecture_media_enabled() const { return media_ != nullptr; }
    [[nodiscard]] MediaBridge& media_bridge() { return *media_; }

    // ------------------------------------------------------------- lifecycle
    /// Record this class into `rec`: tap the network egress, mirror recovery
    /// checkpoints from the shared store as seek keyframes, and emit a state
    /// hash per subject ("sim", "edge/<room>", "cloud") every
    /// `hash_interval` — the divergence checker's per-epoch comparison
    /// points. Call before start(); recording runs until stop() (the caller
    /// finalizes the trace with Recorder::finish()). The recorder must
    /// outlive the run.
    void enable_recording(replay::Recorder& rec,
                          sim::Time hash_interval = sim::Time::ms(100));

    /// Start sensing, servers, publishers and probes.
    void start();
    /// Advance the simulation.
    void run_for(sim::Time duration);
    void stop();

    // ------------------------------------------------------------- accessors
    [[nodiscard]] sim::Simulator& simulator() { return sim_; }
    [[nodiscard]] net::Network& network() { return net_; }
    [[nodiscard]] const net::WanTopology& wan() const { return wan_; }
    [[nodiscard]] session::ClassSession& class_session() { return session_; }
    /// Durable checkpoint storage shared by all servers (survives simulated
    /// process crashes).
    [[nodiscard]] recovery::CheckpointStore& checkpoint_store() { return store_; }
    [[nodiscard]] std::size_t room_count() const { return rooms_.size(); }
    [[nodiscard]] edge::EdgeServer& edge_server(std::size_t room_index);
    [[nodiscard]] cloud::CloudServer& cloud_server() { return *cloud_; }
    [[nodiscard]] cloud::VrClient& remote_client(ParticipantId who);

    /// Ground-truth state of a physical participant (for error metrics).
    [[nodiscard]] std::optional<sensing::GroundTruth> ground_truth(ParticipantId who,
                                                                   sim::Time now);

    [[nodiscard]] ClassReport report();

private:
    struct Room {
        PhysicalRoomConfig config;
        net::NodeId edge_node{net::kInvalidNode};
        std::unique_ptr<edge::EdgeServer> server;
        std::unique_ptr<net::WifiChannel> wifi;
        std::unique_ptr<sensing::RoomSensorArray> sensors;
        /// Event-bus plumbing: this room's imperfect wall clock and (for
        /// non-master rooms) its sync session to room 0.
        sync::DriftingClock clock;
        std::unique_ptr<sync::ClockSyncSession> clock_sync;
    };
    struct PhysicalPerson {
        std::size_t room_index;
        std::unique_ptr<session::SeatedBehaviour> seated;
        std::unique_ptr<session::InstructorBehaviour> instructor;
        std::unique_ptr<sensing::Headset> headset;
        net::StationId station{};
        bool hand_was_raised{false};
    };
    struct RemotePerson {
        net::NodeId node{net::kInvalidNode};
        std::unique_ptr<cloud::VrClient> client;
    };

    /// Shared tail of add_physical_student / add_instructor: give `person` a
    /// WiFi station and a headset that samples `truth` and ships each sample
    /// over the room's WiFi to its edge server, then place `id` in the VR
    /// classroom and under the room cameras.
    ParticipantId wire_headset(ParticipantId id, PhysicalPerson person,
                               std::string headset_name, sensing::Headset::TruthFn truth);

    ClassroomConfig config_;
    sim::Simulator sim_;
    net::WanTopology wan_;
    net::Network net_;
    /// Pre-resolved handles for the per-display-tick probe metrics.
    sim::MetricId event_visibility_id_;
    sim::MetricId display_latency_id_;
    sim::MetricId cross_campus_id_;
    sim::MetricId remote_origin_id_;
    sim::MetricId stale_displays_id_;
    recovery::CheckpointStore store_;
    session::ClassSession session_;
    std::vector<Room> rooms_;
    net::NodeId cloud_node_{net::kInvalidNode};
    std::unique_ptr<cloud::CloudServer> cloud_;
    std::unique_ptr<cloud::RegionalMesh> mesh_;
    std::map<ParticipantId, PhysicalPerson> physical_;
    std::map<ParticipantId, RemotePerson> remote_;
    std::unique_ptr<MediaBridge> media_;
    /// Per (room, participant) decoded-update count last seen by the
    /// latency probe (keyed edge_node<<32 | participant).
    std::map<std::uint64_t, std::uint64_t> probe_last_update_;
    std::size_t teaching_room_{0};
    sim::Time media_started_at_{};
    sim::EventHandle probe_task_;
    bool started_{false};
    std::uint32_t name_counter_{0};

    // Session recording (nullptr when not recording).
    replay::Recorder* recorder_{nullptr};
    sim::EventHandle record_task_;
    std::uint64_t record_epoch_{0};
    std::uint32_t record_subject_sim_{0};
    std::uint32_t record_subject_cloud_{0};
    std::vector<std::uint32_t> record_subject_rooms_;

    void build_rooms();
    void record_tick();
    void build_cloud();
    void build_event_bus();
    void probe_tick();
    /// Broadcast an interaction event from `room_index` to the other rooms,
    /// timestamped in master-clock terms via the room's sync session.
    void publish_event(std::size_t room_index, ParticipantId who,
                       session::InteractionKind kind);
    [[nodiscard]] sensing::GroundTruth truth_of(ParticipantId who, sim::Time now);
};

}  // namespace mvc::core
