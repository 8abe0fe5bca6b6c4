#include "cloud/relay.hpp"

#include <utility>

namespace mvc::cloud {

RelayServer::RelayServer(net::Backend& net, net::NodeId node, RelayConfig config)
    : net_(net),
      node_(node),
      config_(std::move(config)),
      demux_(net, node),
      egress_(net, node, config_) {
    demux_.on_flow(std::string{sync::kAvatarFlow},
                   [this](net::Packet&& p) { handle_avatar_packet(std::move(p)); });
    demux_.on_flow(std::string{sync::kAvatarBatchFlow},
                   [this](net::Packet&& p) { handle_avatar_batch(std::move(p)); });
    if (config_.serve_resync) {
        resync_responder_ = std::make_unique<recovery::ResyncResponder>(
            net_, demux_, [this] {
                std::vector<recovery::ResyncEntry> entries;
                const sim::Time now = net_.clock().now();
                for (const auto& [who, kf] : keyframes_) {
                    if (now - kf.captured_at > config_.resync_freshness) continue;
                    entries.push_back(recovery::ResyncEntry{
                        who, kf.source_room, kf.captured_at,
                        std::vector<std::uint8_t>(kf.bytes.begin(), kf.bytes.end())});
                }
                return entries;
            });
        // No ServedFn: the relay publishes nothing of its own; senders force
        // keyframes on their side (peer-state hooks), and the cache refreshes
        // at the publishers' keyframe interval regardless.
    }
}

void RelayServer::attach_client(net::NodeId client, ParticipantId who,
                                const math::Vec3& position) {
    clients_[client] = who;
    egress_.add_viewer(client, who, position);
    egress_.upsert_entity(who, position);
}

void RelayServer::detach_client(net::NodeId client) {
    const auto it = clients_.find(client);
    if (it == clients_.end()) return;
    egress_.remove_viewer(client);
    clients_.erase(it);
}

void RelayServer::upsert_entity(ParticipantId who, const math::Vec3& position) {
    egress_.upsert_entity(who, position);
}

void RelayServer::handle_avatar_packet(net::Packet&& p) {
    const bool from_origin = p.src == origin_;
    auto wire = p.payload.take<sync::AvatarWire>();
    ingest(std::move(wire), from_origin);
}

void RelayServer::handle_avatar_batch(net::Packet&& p) {
    const bool from_origin = p.src == origin_;
    auto batch = p.payload.take<sync::AvatarBatchWire>();
    for (sync::AvatarWire& wire : batch.updates) ingest(std::move(wire), from_origin);
}

void RelayServer::ingest(sync::AvatarWire&& wire, bool from_origin) {
    ++messages_in_;
    if (config_.serve_resync && wire.keyframe) {
        // Assign in place: the entry's byte block is reused keyframe to keyframe.
        CachedKeyframe& kf = keyframes_[wire.participant];
        kf.source_room = wire.source_room;
        kf.captured_at = wire.captured_at;
        kf.bytes = wire.bytes;
    }
    const sim::Time ready = egress_.charge(config_.process_in);
    net_.clock().schedule_at(ready, [this, wire = std::move(wire), from_origin]() mutable {
        if (from_origin || origin_ == net::kInvalidNode) {
            egress_.to_viewers(std::move(wire));
            return;
        }
        egress_.to_viewers(sync::AvatarWire{wire});
        egress_.to_server(origin_, wire);
    });
}

RegionalMesh::RegionalMesh(CloudServer& origin, PlaceRelayFn place,
                           RelayConfig relay_template)
    : origin_(origin), place_(std::move(place)), relay_template_(std::move(relay_template)) {}

RegionalMesh::RegionalMesh(net::Network& net, const net::WanTopology& wan,
                           CloudServer& origin, RelayConfig relay_template)
    : RegionalMesh(
          origin,
          [&net, &wan, &origin](const std::string& name, net::Region region) {
              const net::NodeId node = net.add_node(name, region);
              net.connect_wan(node, origin.node(), wan);
              return RelayPlacement{net, node, origin.node(), node};
          },
          std::move(relay_template)) {}

bool RegionalMesh::has_relay(net::Region region) const { return relays_.contains(region); }

RelayServer& RegionalMesh::relay_for(net::Region region) {
    const auto it = relays_.find(region);
    if (it != relays_.end()) return *it->second;

    RelayConfig cfg = relay_template_;
    cfg.name = "relay-" + std::string{net::region_name(region)};
    const RelayPlacement at = place_(cfg.name, region);
    auto relay = std::make_unique<RelayServer>(at.net, at.node, std::move(cfg));
    relay->set_origin(at.origin);
    origin_.add_relay(at.at_origin);

    // Entities admitted before this relay existed must be visible to its
    // interest checks too.
    for (const auto& [participant, seat_index] : seat_assignments_) {
        relay->upsert_entity(participant, layout_.seat_pose(seat_index).position);
    }
    auto& ref = *relay;
    relays_.emplace(region, std::move(relay));
    return ref;
}

math::Pose RegionalMesh::attach_client(net::NodeId client, ParticipantId who,
                                       net::Region region) {
    RelayServer& relay = relay_for(region);
    const std::size_t seat_index = next_seat_++;
    seat_assignments_[who] = seat_index;
    const math::Pose seat = layout_.seat_pose(seat_index);
    relay.attach_client(client, who, seat.position);  // upserts into this relay
    for (auto& [r, rs] : relays_)
        if (rs.get() != &relay) rs->upsert_entity(who, seat.position);
    return seat;
}

std::uint64_t RegionalMesh::total_relay_egress() const {
    std::uint64_t total = 0;
    for (const auto& [r, rs] : relays_) total += rs->egress_bytes();
    return total;
}

}  // namespace mvc::cloud
