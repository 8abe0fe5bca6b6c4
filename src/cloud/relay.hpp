#pragma once
// Regional relay servers ("Most gaming platforms solve this issue by setting
// up regional servers"). A RelayServer sits in one region: its clients send
// updates to it instead of to the far-away origin; the relay reflects them
// to same-region viewers immediately (one metro hop) and forwards them to
// the origin, which distributes to the other relays. RegionalMesh is the
// control plane that places relays, wires the topology, and admits clients.

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "cloud/cloud_server.hpp"
#include "net/network.hpp"
#include "recovery/resync.hpp"

namespace mvc::cloud {

/// The egress fields shape the client fan-out and the origin-bound path:
/// batch_interval coalesces updates bound for the origin (the win is on
/// WAN/cross-shard paths).
struct RelayConfig : EgressConfig {
    std::string name{"relay"};
    /// Serve resync snapshots to reconnecting clients from a cache of each
    /// participant's most recent keyframe update. The relay is not
    /// authoritative for any avatar, but it is the node a recovering client
    /// can reach — fresh cached keyframes cover the one-round-trip rejoin.
    bool serve_resync{false};
    /// Cached keyframes older than this are not served (stale state is
    /// worse than letting the live stream re-anchor the client).
    sim::Time resync_freshness{sim::Time::seconds(2.0)};
};

class RelayServer {
public:
    RelayServer(net::Backend& net, net::NodeId node, RelayConfig config);

    RelayServer(const RelayServer&) = delete;
    RelayServer& operator=(const RelayServer&) = delete;

    [[nodiscard]] net::NodeId node() const { return node_; }
    void set_origin(net::NodeId origin) { origin_ = origin; }
    /// The relay node's flow demux, for co-located services (qoe::QoeService)
    /// that register their own flows on this node.
    [[nodiscard]] net::PacketDemux& demux() { return demux_; }

    /// Serve `client` as viewer `who`; also upserts the entity's position.
    void attach_client(net::NodeId client, ParticipantId who, const math::Vec3& position);
    void detach_client(net::NodeId client);
    [[nodiscard]] std::size_t client_count() const { return clients_.size(); }

    /// Make the relay aware of an entity's virtual-classroom position (all
    /// entities, not just local ones — interest checks need them).
    void upsert_entity(ParticipantId who, const math::Vec3& position);

    [[nodiscard]] std::uint64_t messages_in() const { return messages_in_; }
    [[nodiscard]] std::uint64_t messages_out() const { return egress_.messages_out(); }
    [[nodiscard]] std::uint64_t egress_bytes() const { return egress_.egress_bytes(); }
    /// Client fan-out or aggregation, origin batching, and counters.
    [[nodiscard]] AvatarEgress& egress() { return egress_; }
    /// Resync responder; nullptr when serve_resync is off.
    [[nodiscard]] recovery::ResyncResponder* resync_responder() {
        return resync_responder_.get();
    }
    /// Keyframes currently cached for resync service.
    [[nodiscard]] std::size_t cached_keyframes() const { return keyframes_.size(); }

private:
    net::Backend& net_;
    net::NodeId node_;
    RelayConfig config_;
    net::PacketDemux demux_;
    AvatarEgress egress_;
    std::unique_ptr<recovery::ResyncResponder> resync_responder_;
    /// Latest keyframe seen per participant (bytes + capture time), the
    /// source for resync snapshots.
    struct CachedKeyframe {
        ClassroomId source_room;
        sim::Time captured_at{};
        sync::AvatarBytes bytes;
    };
    std::map<ParticipantId, CachedKeyframe> keyframes_;
    net::NodeId origin_{net::kInvalidNode};
    std::map<net::NodeId, ParticipantId> clients_;
    std::uint64_t messages_in_{0};

    void handle_avatar_packet(net::Packet&& p);
    void handle_avatar_batch(net::Packet&& p);
    void ingest(sync::AvatarWire&& wire, bool from_origin);
};

/// Where a relay was placed: its network and node, the origin as the relay
/// addresses it, and the relay as the origin addresses it (the same ids on
/// one network; proxy ids when the relay sits in another shard).
struct RelayPlacement {
    net::Backend& net;
    net::NodeId node, origin, at_origin;
};

/// The mesh's one seam: create a relay's node (named `name`, in `region`)
/// and link it to the origin, on a single Network or in a sharded world.
using PlaceRelayFn =
    std::function<RelayPlacement(const std::string& name, net::Region region)>;

/// Control plane for the regional deployment: one relay per region with
/// clients, all feeding a single origin CloudServer.
class RegionalMesh {
public:
    /// Relays placed by `place` (core::RegionalDeployment places each in
    /// its region's shard).
    RegionalMesh(CloudServer& origin, PlaceRelayFn place, RelayConfig relay_template = {});
    /// Relays on the origin's own network, WAN-linked to it.
    RegionalMesh(net::Network& net, const net::WanTopology& wan, CloudServer& origin,
                 RelayConfig relay_template = {});

    /// Relay serving `region`, created and wired on first use.
    RelayServer& relay_for(net::Region region);
    [[nodiscard]] bool has_relay(net::Region region) const;

    /// Admit a client in `region`: seats them in the shared VR layout,
    /// attaches them to their regional relay, and propagates the entity
    /// position to every relay. Returns the seat pose. The client's network
    /// node must already be connected to the relay's node by the caller
    /// (RegionalMesh::relay_for exposes the node id).
    math::Pose attach_client(net::NodeId client, ParticipantId who, net::Region region);

    [[nodiscard]] std::size_t relay_count() const { return relays_.size(); }
    [[nodiscard]] std::uint64_t total_relay_egress() const;

private:
    CloudServer& origin_;
    PlaceRelayFn place_;
    RelayConfig relay_template_;
    VrLayout layout_;
    std::size_t next_seat_{0};
    std::map<ParticipantId, std::size_t> seat_assignments_;
    std::map<net::Region, std::unique_ptr<RelayServer>> relays_;
};

}  // namespace mvc::cloud
