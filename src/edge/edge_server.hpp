#pragma once
// The per-classroom edge server from Figure 3. Ingests headset + room-sensor
// observations, fuses them into participant tracks, publishes avatar update
// streams to peer servers (the other MR classroom's edge and the VR cloud),
// and — for inbound remote avatars — assigns vacant seats, retargets poses
// into the local room frame, and serves display states to the renderer.
//
// Resilience: with heartbeats enabled the server monitors each peer. While
// a peer is dead its avatar stream is rerouted through the cloud relay
// (AvatarWire::relay_to), and on failback the direct path resumes with a
// forced keyframe so the recovered peer resyncs immediately. A degradation
// policy driven by the heartbeat loss estimate scales down publisher rate
// and dead-reckoning sensitivity under sustained loss.
//
// Crash recovery: with RecoveryParams enabled the server periodically
// checkpoints its replicated state (seat occupancy, reservations, remote
// replica references + retarget bindings, plus whatever the owner's
// checkpoint decorator adds — session membership and content when embedded
// in a MetaverseClassroom) into a durable CheckpointStore. A FaultPlan node
// crash wipes the volatile replicated state; on restart the server restores
// from its last checkpoint, reports the measured recovery gap, resyncs
// anything newer from live peers in one round trip (ResyncClient), and
// forces keyframes so its own outbound delta chains re-anchor.
//
// Overload: with AdmissionParams enabled the avatar ingress runs through a
// bounded drop-oldest queue, and an AdmissionGate sheds never-before-seen
// (late-joining) streams while queue depth stays past the hysteresis
// threshold — newcomers wait, admitted streams keep their bounds.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "edge/retarget.hpp"
#include "edge/seats.hpp"
#include "fault/degradation.hpp"
#include "fault/heartbeat.hpp"
#include "net/channel.hpp"
#include "recovery/admission.hpp"
#include "recovery/checkpointer.hpp"
#include "recovery/reconnect.hpp"
#include "recovery/resync.hpp"
#include "sensing/fusion.hpp"
#include "sync/replication.hpp"
#include "sync/wire.hpp"

namespace mvc::edge {

struct EdgeServerConfig {
    ClassroomId room;
    std::string name{"edge"};
    sensing::FusionParams fusion{};
    sync::ReplicationParams replication{};
    avatar::CodecBounds codec_bounds{};
    sync::JitterBufferParams jitter{};
    RetargetParams retarget{};
    /// Server compute time charged per inbound avatar packet.
    sim::Time process_time{sim::Time::us(30)};
    /// Peer liveness probing; disabled by default (healthy-network setups
    /// pay nothing).
    fault::HeartbeatParams heartbeat{};
    /// Loss-driven graceful degradation (active only with heartbeats on,
    /// which provide the loss signal; the avatar-stream PathHealth loss and
    /// delay estimates are folded in when available).
    fault::DegradationParams degradation{};
    /// Avatar-stream health estimation (wire seq gaps + e2e delay EWMA).
    fault::PathHealthParams path_health{};
    /// Per-peer reconnect state machines: a dead peer (heartbeat failover)
    /// enters a backoff-probe loop instead of waiting passively; each probe
    /// is a resync round trip, and success re-anchors state immediately.
    /// Liveness here defaults to explicit suspicion only — the heartbeat
    /// monitor is the silence detector on this path.
    bool reconnect_enabled{false};
    recovery::ReconnectParams reconnect{.liveness_timeout = sim::Time::zero()};
    /// Crash recovery: periodic checkpoints + restart restoration + resync.
    recovery::RecoveryParams recovery{};
    /// Overload admission control on the avatar ingress.
    recovery::AdmissionParams admission{};
};

class EdgeServer {
public:
    EdgeServer(net::Backend& net, net::NodeId node, EdgeServerConfig config, SeatMap seats);

    EdgeServer(const EdgeServer&) = delete;
    EdgeServer& operator=(const EdgeServer&) = delete;

    [[nodiscard]] net::NodeId node() const { return node_; }
    [[nodiscard]] ClassroomId room() const { return config_.room; }
    [[nodiscard]] net::PacketDemux& demux() { return demux_; }
    [[nodiscard]] SeatMap& seats() { return seats_; }
    [[nodiscard]] const SeatMap& seats() const { return seats_; }

    /// Register a physically present participant (occupies `seat` if given).
    void add_local_participant(ParticipantId who, std::optional<std::size_t> seat = {});
    void remove_local_participant(ParticipantId who);
    [[nodiscard]] std::size_t local_count() const { return locals_.size(); }

    /// Peer server that should receive this classroom's avatar streams.
    void add_peer(net::NodeId peer);
    /// Designate the cloud node that can relay avatar updates to peers whose
    /// direct link is dead. Also registers it as a peer.
    void set_cloud_relay(net::NodeId relay);
    /// Liveness of a peer as seen by this server (true without heartbeats).
    [[nodiscard]] bool peer_alive(net::NodeId peer) const;

    /// Reserve a vacant seat for a remote participant before their stream
    /// arrives (keynote speakers, admitted-late students). Returns the seat
    /// index, or nullopt when the room is full.
    std::optional<std::size_t> reserve_seat(ParticipantId who);

    /// Feed one sensor observation (wired sensors call this directly; WiFi
    /// ingestion delivers here via the channel callback).
    void ingest_sample(sensing::SensorSample&& sample);

    /// Start aggregation + publishing.
    void start();
    void stop();

    /// Retargeted display state of a remote participant at local time `now`.
    [[nodiscard]] std::optional<avatar::AvatarState> display_remote(ParticipantId who,
                                                                    sim::Time now) const;
    /// All remote participants currently represented in this room.
    [[nodiscard]] std::vector<ParticipantId> remote_participants() const;
    /// Count of decoded network updates for a remote participant (0 if
    /// unknown) — lets probes distinguish fresh data from extrapolation.
    [[nodiscard]] std::uint64_t remote_update_count(ParticipantId who) const;
    /// Fused local state (what we are publishing), for verification.
    [[nodiscard]] std::optional<avatar::AvatarState> local_state(ParticipantId who,
                                                                 sim::Time now) const;

    [[nodiscard]] const sensing::PoseFusion& fusion() const { return fusion_; }
    [[nodiscard]] std::uint64_t avatar_packets_in() const { return ingress_.arrivals(); }
    [[nodiscard]] std::uint64_t avatar_packets_out() const { return packets_out_; }
    [[nodiscard]] std::uint64_t seats_exhausted() const { return seats_exhausted_; }

    /// Heartbeat monitor; nullptr when heartbeats are disabled.
    [[nodiscard]] fault::HeartbeatMonitor* heartbeat() { return hb_.get(); }
    [[nodiscard]] const fault::HeartbeatMonitor* heartbeat() const { return hb_.get(); }
    /// Current graceful-degradation level (0 = full fidelity).
    [[nodiscard]] int degradation_level() const { return degrade_.level(); }
    /// Updates sent indirectly through the cloud relay during failover.
    [[nodiscard]] std::uint64_t relayed_out() const { return relayed_out_; }
    /// Observed inbound avatar-path health (loss from wire seq gaps).
    [[nodiscard]] const fault::PathHealth& path_health() const { return health_; }
    /// Reconnect machine for `peer`; nullptr unless reconnect_enabled.
    [[nodiscard]] recovery::Reconnector* reconnector_for(net::NodeId peer);

    // ----- crash recovery ---------------------------------------------------

    /// Extra capture step merged into every checkpoint (the embedding layer
    /// adds session membership/content here).
    using CheckpointDecorator = std::function<void(recovery::ClassroomCheckpoint&)>;
    void set_checkpoint_decorator(CheckpointDecorator fn) {
        checkpoint_decorator_ = std::move(fn);
    }

    /// Capture this server's replicated state into `cp` (also used by the
    /// periodic checkpointer).
    void make_checkpoint(recovery::ClassroomCheckpoint& cp) const;
    /// Re-apply a decoded checkpoint: seats, reservations, replicas with
    /// their exact retarget bindings.
    void restore_checkpoint(const recovery::ClassroomCheckpoint& cp);

    [[nodiscard]] std::uint64_t restores() const { return restorer_.restores(); }
    [[nodiscard]] std::uint64_t cold_starts() const { return restorer_.cold_starts(); }
    [[nodiscard]] double last_recovery_gap_ms() const { return restorer_.last_gap_ms(); }
    /// The checkpoint applied by the most recent restart; nullopt before any.
    [[nodiscard]] const std::optional<recovery::ClassroomCheckpoint>& last_restored()
        const {
        return last_restored_;
    }
    [[nodiscard]] recovery::Checkpointer* checkpointer() { return checkpointer_.get(); }
    [[nodiscard]] recovery::ResyncClient* resync_client() { return resync_client_.get(); }

    // ----- overload admission -----------------------------------------------

    [[nodiscard]] const recovery::AdmissionGate& admission_gate() const { return ingress_.gate(); }
    [[nodiscard]] std::uint64_t shed_streams() const { return ingress_.shed(); }
    [[nodiscard]] std::uint64_t queue_dropped() const { return ingress_.dropped(); }
    [[nodiscard]] std::size_t ingress_depth() const { return ingress_.depth(); }

    /// Deterministic fingerprint of this server's replicated state: local
    /// roster, remote replicas (seat bindings + replica digests), seat
    /// reservations, and the packet/shed counters. Recorded per epoch so the
    /// replay divergence checker can name the node — not just the epoch —
    /// where two runs split.
    [[nodiscard]] std::uint64_t state_digest() const;

private:
    struct LocalParticipant {
        std::unique_ptr<sync::AvatarPublisher> publisher;
        std::optional<std::size_t> seat;
        /// Wire sequence of this participant's outbound stream (stamped on
        /// every transmitted update; receivers read gaps as genuine loss).
        std::uint32_t next_seq{0};
    };
    struct RemoteParticipant {
        std::unique_ptr<sync::AvatarReplica> replica;
        std::optional<std::size_t> seat;
        ClassroomId source_room;
        bool anchored{false};
        /// Seat shortage already reported for this participant (the seat
        /// search still retries quietly as seats free up).
        bool seat_shortage_reported{false};
    };
    struct PeerLink {
        net::NodeId node;
        bool alive{true};
    };

    /// Telemetry handles interned once at construction; per-packet and
    /// per-tick paths record through these instead of building labeled keys.
    struct MetricIds {
        sim::MetricId relayed_out;
        sim::MetricId sensor_ingest_ms;
        sim::MetricId degrade_level;
        sim::MetricId ingest_ms;
    };

    net::Backend& net_;
    net::NodeId node_;
    EdgeServerConfig config_;
    MetricIds ids_;
    SeatMap seats_;
    net::PacketDemux demux_;
    net::Channel avatar_tx_;
    avatar::AvatarCodec codec_;
    sensing::PoseFusion fusion_;
    PoseRetargeter retargeter_;
    std::map<ParticipantId, LocalParticipant> locals_;
    std::map<ParticipantId, RemoteParticipant> remotes_;
    std::map<ParticipantId, std::size_t> reserved_seats_;
    std::vector<PeerLink> peers_;
    net::NodeId cloud_relay_{net::kInvalidNode};
    std::unique_ptr<fault::HeartbeatMonitor> hb_;
    fault::DegradationPolicy degrade_;
    fault::PathHealth health_;
    std::map<net::NodeId, std::unique_ptr<recovery::Reconnector>> reconnectors_;
    sim::EventHandle degrade_task_;
    bool running_{false};
    sim::Time busy_until_{};
    recovery::AvatarIngress ingress_;
    std::uint64_t packets_out_{0};
    std::uint64_t seats_exhausted_{0};
    std::uint64_t relayed_out_{0};

    // Crash recovery.
    std::unique_ptr<recovery::Checkpointer> checkpointer_;
    std::unique_ptr<recovery::ResyncResponder> resync_responder_;
    std::unique_ptr<recovery::ResyncClient> resync_client_;
    CheckpointDecorator checkpoint_decorator_;
    std::optional<recovery::ClassroomCheckpoint> last_restored_;
    recovery::Restorer restorer_;

    void process_avatar_wire(const sync::AvatarWire& wire, sim::Time sent_at);
    void try_anchor(ParticipantId who, RemoteParticipant& rp);
    void on_node_state(bool up);
    void wipe_replicated_state();
    [[nodiscard]] std::vector<recovery::ResyncEntry> build_resync_entries() const;
    void publish(ParticipantId who, const std::vector<std::uint8_t>& bytes, bool keyframe,
                 sim::Time captured_at);
    void on_peer_state(net::NodeId peer, bool alive);
    void degrade_tick();
    [[nodiscard]] avatar::AvatarState synthesize_avatar(ParticipantId who,
                                                        const sensing::FusedTrack& track,
                                                        sim::Time now) const;
};

}  // namespace mvc::edge
