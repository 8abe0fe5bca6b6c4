#include "cloud/cloud_server.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"

namespace mvc::cloud {

CloudServer::CloudServer(net::Backend& net, net::NodeId node, CloudServerConfig config)
    : net_(net),
      node_(node),
      config_(std::move(config)),
      ids_{.relayed_failover =
               net.metrics().counter_id("cloud." + config_.name + ".relayed_failover"),
           .suppressed_dead_peer = net.metrics().counter_id(
               "cloud." + config_.name + ".suppressed_dead_peer")},
      demux_(net, node),
      egress_(net, node, config_),
      layout_(config_.layout),
      ingress_(
          net, demux_, config_.name, config_.admission,
          [this] {
              const sim::Time ready = egress_.charge(config_.process_in);
              queue_delay_accum_ms_ += (ready - net_.clock().now()).to_ms();
              return ready;
          },
          [this](net::Payload&& update, net::NodeId origin, sim::Time) {
              forward(std::move(update), origin);
          }),
      restorer_(net.clock(), net.metrics(), config_.name) {
    net_.context(node_).bind<CloudServer>(this);
    if (config_.heartbeat.enabled) {
        hb_ = std::make_unique<fault::HeartbeatMonitor>(
            net_, demux_, config_.heartbeat, "cloud." + config_.name);
    }
    if (config_.recovery.enabled && config_.recovery.store != nullptr) {
        if (config_.recovery.checkpoints) {
            checkpointer_ = std::make_unique<recovery::Checkpointer>(
                net_.clock(), net_.metrics(), config_.recovery, net_.name_of(node_),
                [this](recovery::ClassroomCheckpoint& cp) { make_checkpoint(cp); });
        }
        net_.observe_node(node_, [this](net::NodeId, bool up) { on_node_state(up); });
    }
}

std::optional<math::Pose> CloudServer::attach_client(net::NodeId client, ParticipantId who) {
    if (config_.capacity != 0 && clients_.size() >= config_.capacity) return std::nullopt;
    const std::size_t seat = next_seat_++;
    clients_[client] = Client{who, seat};
    seats_[who] = seat;
    const math::Pose pose = layout_.seat_pose(seat);
    egress_.add_viewer(client, who, pose.position);
    egress_.upsert_entity(who, pose.position);
    return pose;
}

void CloudServer::detach_client(net::NodeId client) {
    const auto it = clients_.find(client);
    if (it == clients_.end()) return;
    egress_.remove_viewer(client);
    egress_.remove_entity(it->second.who);
    seats_.erase(it->second.who);
    clients_.erase(it);
}

void CloudServer::add_relay(net::NodeId relay) {
    if (std::find(relays_.begin(), relays_.end(), relay) == relays_.end()) {
        relays_.push_back(relay);
        if (hb_) hb_->watch(relay);
    }
}

void CloudServer::add_peer(net::NodeId peer) {
    if (std::find(peers_.begin(), peers_.end(), peer) == peers_.end()) {
        peers_.push_back(peer);
        if (hb_) hb_->watch(peer);
    }
}

void CloudServer::start() {
    if (hb_) hb_->start();
    if (checkpointer_) checkpointer_->resume();
}

void CloudServer::stop() {
    if (hb_) hb_->stop();
    if (checkpointer_) checkpointer_->pause();
}

bool CloudServer::target_alive(net::NodeId target) const {
    return hb_ == nullptr || hb_->alive(target);
}

math::Pose CloudServer::place_entity(ParticipantId who) {
    const auto it = seats_.find(who);
    const std::size_t seat = it != seats_.end() ? it->second : next_seat_++;
    seats_[who] = seat;
    const math::Pose pose = layout_.seat_pose(seat);
    egress_.upsert_entity(who, pose.position);
    return pose;
}

std::optional<math::Pose> CloudServer::seat_of(ParticipantId who) const {
    const auto it = seats_.find(who);
    if (it == seats_.end()) return std::nullopt;
    return layout_.seat_pose(it->second);
}

double CloudServer::mean_queue_delay_ms() const {
    if (messages_in() == 0) return 0.0;
    return queue_delay_accum_ms_ / static_cast<double>(messages_in());
}

std::uint64_t CloudServer::state_digest() const {
    common::Hash64 h;
    // std::map iteration is key-ordered: the digest depends on the state,
    // not on the order clients happened to attach.
    h.size(clients_.size());
    for (const auto& [node, client] : clients_)
        h.u32(node).u32(client.who.value()).size(client.seat_index);
    h.size(seats_.size());
    for (const auto& [who, seat] : seats_) h.u32(who.value()).size(seat);
    h.size(next_seat_);
    h.u64(messages_in()).u64(egress_.messages_out()).u64(egress_.egress_bytes());
    h.u64(relayed_failover_);
    h.u64(shed_streams()).u64(queue_dropped()).u64(restores()).u64(cold_starts());
    h.size(ingress_.depth()).size(ingress_.admitted());
    return h.digest();
}

void CloudServer::forward(net::Payload&& update, net::NodeId origin) {
    // Failover relaying: the origin edge listed peers whose direct link is
    // dead; forward this update to them on its behalf. The forwarded copy
    // carries no relay_to of its own (one relay hop only — no loops), so
    // only such an update is re-boxed. Every other outbound copy shares the
    // box the update arrived in (DESIGN §9.8).
    std::vector<std::uint32_t> relay_targets;
    if (!update.get<sync::AvatarWire>().relay_to.empty()) {
        sync::AvatarWire wire = update.take<sync::AvatarWire>();
        relay_targets.swap(wire.relay_to);
        update = net::Payload{std::move(wire)};
    }

    for (const std::uint32_t t : relay_targets) {
        const auto target = static_cast<net::NodeId>(t);
        if (target == origin || target == node_) continue;
        ++relayed_failover_;
        net_.metrics().count(ids_.relayed_failover);
        egress_.to_server(target, update, AvatarEgress::Route::Direct);
    }

    // Attached clients, under interest management (or egress aggregation).
    egress_.to_viewers(update);

    // Relays and peer servers always get every update (they run their own
    // interest filtering for their local audiences). Targets the heartbeat
    // monitor considers dead are skipped — their traffic would only die on
    // the wire and inflate egress/compute accounting.
    const auto to_server = [&](net::NodeId target) {
        if (target == origin) return;
        if (!target_alive(target)) {
            net_.metrics().count(ids_.suppressed_dead_peer);
            return;
        }
        egress_.to_server(target, update);
    };
    for (const net::NodeId relay : relays_) to_server(relay);
    // Mirror to peer MR edges only for streams that originate in the virtual
    // classroom (edge-to-edge traffic flows directly between the edges; re-
    // forwarding it here would double-deliver) — unless this cloud is the
    // sole relay of the deployment.
    if (config_.mirror_all_streams ||
        update.get<sync::AvatarWire>().source_room == config_.room) {
        for (const net::NodeId peer : peers_) to_server(peer);
    }
}

// ------------------------------------------------------------ crash recovery

void CloudServer::make_checkpoint(recovery::ClassroomCheckpoint& cp) const {
    // The cloud's recoverable state is the virtual-room placement: which
    // participant the layout put at which seat. Client connections are not
    // checkpointed — clients notice the outage and re-attach themselves.
    for (const auto& [who, seat] : seats_)
        cp.seats.push_back(
            recovery::SeatRecord{static_cast<std::uint32_t>(seat), who});
}

void CloudServer::restore_checkpoint(const recovery::ClassroomCheckpoint& cp) {
    for (const auto& s : cp.seats) {
        seats_[s.occupant] = s.seat_index;
        egress_.upsert_entity(s.occupant, layout_.seat_pose(s.seat_index).position);
        next_seat_ = std::max(next_seat_, static_cast<std::size_t>(s.seat_index) + 1);
    }
}

void CloudServer::on_node_state(bool up) {
    if (!up) {
        // Process crash: connections, placement and queued work are volatile.
        stop();
        for (const auto& [client, c] : clients_) {
            egress_.remove_viewer(client);
            egress_.remove_entity(c.who);
        }
        for (const auto& [who, seat] : seats_) egress_.remove_entity(who);
        clients_.clear();
        seats_.clear();
        next_seat_ = 0;
        ingress_.crash();
        return;
    }
    restorer_.restart(checkpointer_.get(),
                      [this](recovery::ClassroomCheckpoint&& cp) { restore_checkpoint(cp); });
    start();
}

}  // namespace mvc::cloud
