#pragma once
// The cloud server hosting the Digital Metaverse Classroom (Figure 3: "the
// cloud server arranges the avatars of all users within an entirely virtual
// VR classroom and transmits the results back to the remote users").
//
// Responsibilities: admit remote VR clients, place them via VrLayout,
// ingest avatar streams (from edge servers and from the clients themselves),
// and fan updates out under interest management through the shared
// AvatarEgress, whose single-queue compute model charges per-message
// processing so saturation shows up as queueing delay in the scalability
// experiment (E3).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/egress.hpp"
#include "cloud/vr_layout.hpp"
#include "fault/heartbeat.hpp"
#include "net/channel.hpp"
#include "recovery/admission.hpp"
#include "recovery/checkpointer.hpp"
#include "sync/wire.hpp"

namespace mvc::cloud {

struct CloudServerConfig : EgressConfig {
    ClassroomId room;
    std::string name{"cloud"};
    VrLayoutParams layout{};
    /// Hard cap on attendees (0 = unlimited).
    std::size_t capacity{0};
    /// Mirror *every* inbound stream to peer servers, not just streams that
    /// originate in this virtual room. Off in the Figure-3 topology (edges
    /// peer directly); on when the cloud is the sole relay (E11 ablation).
    bool mirror_all_streams{false};
    /// Peer/relay liveness probing; when enabled, fan-out to peers and
    /// relays currently considered dead is suppressed (counted instead).
    fault::HeartbeatParams heartbeat{};
    /// Crash recovery: periodic checkpoints of the virtual-room placement
    /// (who sits where) restored on a FaultPlan node restart.
    recovery::RecoveryParams recovery{};
    /// Overload admission control on the avatar ingress (bounded drop-oldest
    /// queue + hysteresis gate shedding never-seen late-joining streams).
    recovery::AdmissionParams admission{};
};

class CloudServer {
public:
    CloudServer(net::Backend& net, net::NodeId node, CloudServerConfig config);

    CloudServer(const CloudServer&) = delete;
    CloudServer& operator=(const CloudServer&) = delete;

    [[nodiscard]] net::NodeId node() const { return node_; }
    [[nodiscard]] net::PacketDemux& demux() { return demux_; }

    /// Admit a VR client; returns its seat pose in the virtual classroom, or
    /// nullopt when the server is at capacity.
    [[nodiscard]] std::optional<math::Pose> attach_client(net::NodeId client,
                                                          ParticipantId who);
    void detach_client(net::NodeId client);
    [[nodiscard]] std::size_t client_count() const { return clients_.size(); }

    /// Downstream relay that receives every update (regional mode).
    void add_relay(net::NodeId relay);
    /// Mirror every inbound stream to a peer server (e.g. an MR edge) —
    /// this is how VR participants appear back in the physical classrooms.
    void add_peer(net::NodeId peer);

    /// Seat pose the layout gave a participant (for clients and relays).
    [[nodiscard]] std::optional<math::Pose> seat_of(ParticipantId who) const;

    /// Give a non-client entity (e.g. a physical participant mirrored from
    /// an MR classroom) a place in the virtual room, so interest checks and
    /// remote viewers can see them.
    math::Pose place_entity(ParticipantId who);

    /// Start/stop the heartbeat prober (no-op when heartbeats are disabled).
    void start();
    void stop();

    [[nodiscard]] std::uint64_t messages_in() const { return ingress_.arrivals(); }
    [[nodiscard]] std::uint64_t messages_out() const { return egress_.messages_out(); }
    [[nodiscard]] std::uint64_t egress_bytes() const { return egress_.egress_bytes(); }
    /// Client fan-out or aggregation, relay/peer batching, and counters.
    [[nodiscard]] AvatarEgress& egress() { return egress_; }
    /// Mean queueing delay experienced by inbound messages (ms).
    [[nodiscard]] double mean_queue_delay_ms() const;
    /// Updates forwarded on behalf of an edge whose peer link was dead.
    [[nodiscard]] std::uint64_t relayed_for_failover() const { return relayed_failover_; }
    /// Heartbeat monitor; nullptr when heartbeats are disabled.
    [[nodiscard]] fault::HeartbeatMonitor* heartbeat() { return hb_.get(); }

    // ----- crash recovery / overload admission ------------------------------

    [[nodiscard]] std::uint64_t restores() const { return restorer_.restores(); }
    [[nodiscard]] std::uint64_t cold_starts() const { return restorer_.cold_starts(); }
    [[nodiscard]] double last_recovery_gap_ms() const { return restorer_.last_gap_ms(); }
    [[nodiscard]] const recovery::AdmissionGate& admission_gate() const { return ingress_.gate(); }
    [[nodiscard]] std::uint64_t shed_streams() const { return ingress_.shed(); }
    [[nodiscard]] std::uint64_t queue_dropped() const { return ingress_.dropped(); }
    [[nodiscard]] std::size_t ingress_depth() const { return ingress_.depth(); }

    /// Deterministic fingerprint of the virtual-room state: client roster,
    /// placement map, message counters. Recorded per epoch so the replay
    /// divergence checker can name the node where two runs split.
    [[nodiscard]] std::uint64_t state_digest() const;

private:
    struct Client {
        ParticipantId who;
        std::size_t seat_index;
    };

    /// Telemetry handles interned once at construction; the per-update
    /// forward path records through these.
    struct MetricIds {
        sim::MetricId relayed_failover;
        sim::MetricId suppressed_dead_peer;
    };

    net::Backend& net_;
    net::NodeId node_;
    CloudServerConfig config_;
    MetricIds ids_;
    net::PacketDemux demux_;
    AvatarEgress egress_;
    VrLayout layout_;
    std::map<net::NodeId, Client> clients_;
    std::map<ParticipantId, std::size_t> seats_;
    std::vector<net::NodeId> relays_;
    std::vector<net::NodeId> peers_;
    std::unique_ptr<fault::HeartbeatMonitor> hb_;
    std::size_t next_seat_{0};
    std::uint64_t relayed_failover_{0};
    double queue_delay_accum_ms_{0.0};
    recovery::AvatarIngress ingress_;

    // Crash recovery of the placement state.
    std::unique_ptr<recovery::Checkpointer> checkpointer_;
    recovery::Restorer restorer_;

    void forward(net::Payload&& update, net::NodeId origin);
    [[nodiscard]] bool target_alive(net::NodeId target) const;
    void on_node_state(bool up);
    void make_checkpoint(recovery::ClassroomCheckpoint& cp) const;
    void restore_checkpoint(const recovery::ClassroomCheckpoint& cp);
};

}  // namespace mvc::cloud
