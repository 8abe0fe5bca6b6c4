#pragma once
// Regional relay servers ("Most gaming platforms solve this issue by setting
// up regional servers"). A RelayServer sits in one region: its clients send
// updates to it instead of to the far-away origin; the relay reflects them
// to same-region viewers immediately (one metro hop) and forwards them to
// the origin, which distributes to the other relays. RegionalMesh is the
// control plane that places relays, wires the topology, and admits clients.

#include <map>
#include <memory>
#include <string>

#include "cloud/cloud_server.hpp"
#include "net/network.hpp"
#include "recovery/resync.hpp"
#include "sync/aggregator.hpp"
#include "sync/batcher.hpp"

namespace mvc::cloud {

struct RelayConfig {
    std::string name{"relay"};
    sync::InterestPolicy interest{};
    bool interest_enabled{true};
    sim::Time process_in{sim::Time::us(20)};
    sim::Time process_out{sim::Time::us(5)};
    /// Coalesce updates bound for the origin into one batch packet per
    /// interval (zero = send each update in its own packet). The win is on
    /// WAN/cross-shard paths; client fan-out is per-packet unless egress
    /// aggregation (below) is enabled.
    sim::Time batch_interval{};
    /// Aggregate client fan-out: dirty deltas accumulate for one interval,
    /// are grouped by interest-grid cell, and each client receives one
    /// tier-selected batch per interval (sync::CellDeltaAggregator) instead
    /// of one packet per update. Zero keeps the per-update fan-out.
    sim::Time aggregate_interval{};
    /// Cell edge length for egress aggregation (metres).
    double aggregate_cell_size{8.0};
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

    void attach_client(net::NodeId client, ParticipantId who, const math::Vec3& position);
    void detach_client(net::NodeId client);
    [[nodiscard]] std::size_t client_count() const { return clients_.size(); }

    /// Make the relay aware of an entity's virtual-classroom position (all
    /// entities, not just local ones — interest checks need them).
    void upsert_entity(ParticipantId who, const math::Vec3& position);

    [[nodiscard]] std::uint64_t messages_in() const { return messages_in_; }
    [[nodiscard]] std::uint64_t messages_out() const { return messages_out_; }
    [[nodiscard]] std::uint64_t egress_bytes() const { return egress_bytes_; }
    /// Origin-bound batcher; nullptr when batching is off.
    [[nodiscard]] sync::WireBatcher* batcher() { return batcher_.get(); }
    /// Client-bound egress aggregator; nullptr when aggregation is off.
    [[nodiscard]] sync::CellDeltaAggregator* aggregator() { return aggregator_.get(); }
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
    net::Channel avatar_tx_;
    InterestFanout fanout_;
    std::unique_ptr<sync::WireBatcher> batcher_;
    std::unique_ptr<sync::CellDeltaAggregator> aggregator_;
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
    std::vector<net::NodeId> fanout_scratch_;
    sim::Time busy_until_{};
    std::uint64_t messages_in_{0};
    std::uint64_t messages_out_{0};
    std::uint64_t egress_bytes_{0};

    void handle_avatar_packet(net::Packet&& p);
    void handle_avatar_batch(net::Packet&& p);
    void ingest(sync::AvatarWire&& wire, bool from_origin);
    void fan_out(const sync::AvatarWire& wire);
    sim::Time charge(sim::Time amount);
};

/// Control plane for the regional deployment: one relay per region with
/// clients, all feeding a single origin CloudServer.
class RegionalMesh {
public:
    RegionalMesh(net::Network& net, const net::WanTopology& wan, CloudServer& origin,
                 net::Region origin_region, RelayConfig relay_template = {});

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
    net::Network& net_;
    const net::WanTopology& wan_;
    CloudServer& origin_;
    net::Region origin_region_;
    RelayConfig relay_template_;
    VrLayout layout_;
    std::size_t next_seat_{0};
    std::map<ParticipantId, std::size_t> seat_assignments_;
    std::map<net::Region, std::unique_ptr<RelayServer>> relays_;
};

}  // namespace mvc::cloud
