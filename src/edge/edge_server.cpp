#include "edge/edge_server.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"

namespace mvc::edge {

EdgeServer::EdgeServer(net::Backend& net, net::NodeId node, EdgeServerConfig config,
                       SeatMap seats)
    : net_(net),
      node_(node),
      config_(std::move(config)),
      ids_{.relayed_out =
               net.metrics().counter_id("edge." + config_.name + ".relayed_out"),
           .sensor_ingest_ms =
               net.metrics().series_id("edge." + config_.name + ".sensor_ingest_ms"),
           .degrade_level =
               net.metrics().series_id("edge." + config_.name + ".degrade_level"),
           .ingest_ms = net.metrics().series_id("edge." + config_.name + ".ingest_ms")},
      seats_(std::move(seats)),
      demux_(net, node),
      avatar_tx_(net.open_channel({.src = node_,
                                   .flow = std::string{sync::kAvatarFlow},
                                   .options = {.priority = net::Priority::Realtime}})),
      codec_(config_.codec_bounds),
      fusion_(config_.fusion),
      retargeter_(config_.retarget),
      degrade_(config_.degradation),
      health_(config_.path_health),
      ingress_(
          net, demux_, config_.name, config_.admission,
          [this] {
              // One compute queue: a wire starts when the previous one is done.
              busy_until_ = std::max(net_.clock().now(), busy_until_) + config_.process_time;
              return busy_until_;
          },
          [this](net::Payload&& update, net::NodeId, sim::Time sent_at) {
              process_avatar_wire(update.get<sync::AvatarWire>(), sent_at);
          }),
      restorer_(net.clock(), net.metrics(), config_.name) {
    net_.context(node_).bind<EdgeServer>(this);
    if (config_.heartbeat.enabled) {
        hb_ = std::make_unique<fault::HeartbeatMonitor>(
            net_, demux_, config_.heartbeat, "edge." + config_.name);
        hb_->on_peer_state(
            [this](net::NodeId peer, bool alive) { on_peer_state(peer, alive); });
    }
    if (config_.recovery.enabled && config_.recovery.store != nullptr) {
        if (config_.recovery.checkpoints) {
            checkpointer_ = std::make_unique<recovery::Checkpointer>(
                net_.clock(), net_.metrics(), config_.recovery, net_.name_of(node_),
                [this](recovery::ClassroomCheckpoint& cp) {
                    make_checkpoint(cp);
                    if (checkpoint_decorator_) checkpoint_decorator_(cp);
                });
        }
        if (config_.recovery.resync) {
            resync_responder_ = std::make_unique<recovery::ResyncResponder>(
                net_, demux_, [this] { return build_resync_entries(); },
                [this] {
                    for (auto& [who, lp] : locals_) lp.publisher->request_keyframe();
                });
            resync_client_ = std::make_unique<recovery::ResyncClient>(
                net_, demux_,
                [this](const recovery::ResyncSnapshot& snap, net::NodeId from) {
                    const sim::Time now = net_.clock().now();
                    for (const auto& entry : snap.entries) {
                        auto [it, inserted] = remotes_.try_emplace(entry.participant);
                        RemoteParticipant& rp = it->second;
                        if (inserted)
                            rp.replica = std::make_unique<sync::AvatarReplica>(
                                codec_, config_.jitter);
                        rp.source_room = entry.source_room;
                        rp.replica->ingest(entry.bytes, /*keyframe=*/true, now);
                        try_anchor(entry.participant, rp);
                    }
                    // A served snapshot is proof the path to `from` works;
                    // if a reconnect probe is in flight, this is its verdict.
                    if (recovery::Reconnector* rc = reconnector_for(from))
                        rc->probe_succeeded();
                });
        }
        net_.observe_node(node_, [this](net::NodeId, bool up) { on_node_state(up); });
    }
}

void EdgeServer::add_local_participant(ParticipantId who, std::optional<std::size_t> seat) {
    LocalParticipant lp;
    if (seat.has_value()) {
        seats_.occupy(*seat, who);
        lp.seat = seat;
    }
    lp.publisher = std::make_unique<sync::AvatarPublisher>(
        net_.clock(), codec_, config_.replication,
        [this, who](const std::vector<std::uint8_t>& bytes, bool keyframe,
                    sim::Time captured_at) { publish(who, bytes, keyframe, captured_at); });
    // Pull-mode: each publisher tick samples fusion at send time, so capture
    // timestamps track transmission and receiver jitter stays network-only.
    lp.publisher->set_provider([this, who]() -> std::optional<avatar::AvatarState> {
        const sim::Time now = net_.clock().now();
        const auto track = fusion_.estimate(who, now);
        if (!track.has_value()) return std::nullopt;
        return synthesize_avatar(who, *track, now);
    });
    if (running_) lp.publisher->start();
    locals_.emplace(who, std::move(lp));
}

void EdgeServer::remove_local_participant(ParticipantId who) {
    const auto it = locals_.find(who);
    if (it == locals_.end()) return;
    if (it->second.seat.has_value()) seats_.vacate(*it->second.seat);
    it->second.publisher->stop();
    locals_.erase(it);
    fusion_.drop(who);
}

void EdgeServer::publish(ParticipantId who, const std::vector<std::uint8_t>& bytes,
                         bool keyframe, sim::Time captured_at) {
    sync::AvatarWire wire{who, config_.room, keyframe, bytes, captured_at, {}};
    if (const auto lp = locals_.find(who); lp != locals_.end())
        wire.seq = ++lp->second.next_seq;
    const std::size_t wire_size = wire.wire_bytes();
    // Failover routing: peers whose direct link is dead receive this update
    // through the cloud relay instead (piggybacked on the relay's own copy).
    std::vector<std::uint32_t> relay_to;
    for (const PeerLink& peer : peers_) {
        if (!peer.alive && peer.node != cloud_relay_ && cloud_relay_ != net::kInvalidNode)
            relay_to.push_back(peer.node);
    }
    // The cloud relay's copy carries the routing list; every other live peer
    // shares one box. The wire is copied only when both are sent.
    const bool failover = !relay_to.empty();
    const auto routes = [&](const PeerLink& p) { return failover && p.node == cloud_relay_; };
    bool routing = false;
    bool sharing = false;
    for (const PeerLink& peer : peers_)
        if (peer.alive) (routes(peer) ? routing : sharing) = true;
    sync::AvatarWire routed;
    if (routing) {
        routed = sharing ? wire : std::move(wire);
        routed.relay_to = std::move(relay_to);
    }
    const net::Payload shared = sharing ? net::Payload{std::move(wire)} : net::Payload{};
    for (const PeerLink& peer : peers_) {
        if (!peer.alive) continue;
        ++packets_out_;
        if (!routes(peer)) {
            avatar_tx_.send_to(peer.node, wire_size, shared);
            continue;
        }
        relayed_out_ += routed.relay_to.size();
        net_.metrics().count(ids_.relayed_out, routed.relay_to.size());
        avatar_tx_.send_to(peer.node, routed.wire_bytes(), std::move(routed));
    }
}

void EdgeServer::add_peer(net::NodeId peer) {
    const auto it = std::find_if(peers_.begin(), peers_.end(),
                                 [peer](const PeerLink& p) { return p.node == peer; });
    if (it != peers_.end()) return;
    peers_.push_back(PeerLink{peer, true});
    if (hb_) hb_->watch(peer);
    if (config_.reconnect_enabled) {
        auto rc = std::make_unique<recovery::Reconnector>(
            net_.clock(), config_.reconnect,
            config_.name + "/" + net_.name_of(peer));
        rc->on_probe([this, peer] {
            // A resync round trip doubles as the probe: success both proves
            // the path and re-anchors state in one RTT. Without a resync
            // client fall back to the heartbeat verdict.
            if (resync_client_ != nullptr) {
                resync_client_->request(peer);
            } else if (hb_ == nullptr || hb_->alive(peer)) {
                if (recovery::Reconnector* self = reconnector_for(peer))
                    self->probe_succeeded();
            }
        });
        if (running_) rc->start();
        reconnectors_.emplace(peer, std::move(rc));
    }
}

recovery::Reconnector* EdgeServer::reconnector_for(net::NodeId peer) {
    const auto it = reconnectors_.find(peer);
    return it == reconnectors_.end() ? nullptr : it->second.get();
}

void EdgeServer::set_cloud_relay(net::NodeId relay) {
    add_peer(relay);
    cloud_relay_ = relay;
}

bool EdgeServer::peer_alive(net::NodeId peer) const {
    const auto it = std::find_if(peers_.begin(), peers_.end(),
                                 [peer](const PeerLink& p) { return p.node == peer; });
    return it == peers_.end() || it->alive;
}

void EdgeServer::on_peer_state(net::NodeId peer, bool alive) {
    const auto it = std::find_if(peers_.begin(), peers_.end(),
                                 [peer](const PeerLink& p) { return p.node == peer; });
    if (it != peers_.end()) it->alive = alive;
    // Dead peer: the relayed stream starts mid-delta, so force a keyframe to
    // resync relay-path receivers. Recovered peer: same, for the direct path
    // (it missed everything sent while its inbound deliveries were dying).
    for (auto& [who, lp] : locals_) lp.publisher->request_keyframe();
    if (recovery::Reconnector* rc = reconnector_for(peer)) {
        if (alive) {
            rc->touch();
        } else {
            rc->suspect();  // starts the backoff-probe loop
        }
    }
}

std::optional<std::size_t> EdgeServer::reserve_seat(ParticipantId who) {
    const auto existing = reserved_seats_.find(who);
    if (existing != reserved_seats_.end()) return existing->second;
    const auto vacant = seats_.vacant_indices();
    if (vacant.empty()) return std::nullopt;
    // Front-row seats first: reservations are for people the room should see.
    const std::size_t seat = vacant.front();
    seats_.occupy(seat, who);
    reserved_seats_[who] = seat;
    return seat;
}

void EdgeServer::ingest_sample(sensing::SensorSample&& sample) {
    net_.metrics().sample(ids_.sensor_ingest_ms,
                          (net_.clock().now() - sample.captured_at).to_ms());
    fusion_.observe(sample);
}

void EdgeServer::start() {
    if (running_) return;
    running_ = true;
    for (auto& [who, lp] : locals_) lp.publisher->start();
    if (hb_) {
        hb_->start();
        degrade_task_ =
            net_.clock().schedule_every(config_.heartbeat.interval, [this] {
                degrade_tick();
            });
    }
    for (auto& [peer, rc] : reconnectors_) rc->start();
    if (checkpointer_) checkpointer_->resume();
}

void EdgeServer::stop() {
    if (!running_) return;
    running_ = false;
    for (auto& [who, lp] : locals_) lp.publisher->stop();
    if (hb_) {
        hb_->stop();
        net_.clock().cancel(degrade_task_);
    }
    for (auto& [peer, rc] : reconnectors_) rc->stop();
    if (checkpointer_) checkpointer_->pause();
}

void EdgeServer::degrade_tick() {
    const sim::Time now = net_.clock().now();
    health_.roll(now);
    // Worst of the two loss signals: heartbeat seq gaps (cheap, all peers)
    // and avatar-stream seq gaps (the traffic that actually matters). The
    // PathHealth delay EWMA adds the latency criterion when configured.
    const double loss = std::max(hb_->worst_loss(), health_.loss());
    if (!degrade_.update(loss, health_.rtt_ms(), now)) return;
    const double rate_scale = degrade_.rate_scale();
    const double threshold_scale = degrade_.threshold_scale();
    for (auto& [who, lp] : locals_) {
        lp.publisher->set_rate_scale(rate_scale);
        lp.publisher->set_threshold_scale(threshold_scale);
    }
    net_.metrics().sample(ids_.degrade_level, static_cast<double>(degrade_.level()));
    net_.metrics().count(
        "edge.degrade_transition",
        {{"server", config_.name},
         {"lod", avatar::lod_profile(degrade_.lod()).name}});
}

avatar::AvatarState EdgeServer::synthesize_avatar(ParticipantId who,
                                                  const sensing::FusedTrack& track,
                                                  sim::Time now) const {
    avatar::AvatarState s;
    s.participant = who;
    s.root = track.state;
    s.captured_at = now;
    // Body joints synthesized from the fused root: head above the root,
    // hands in a natural rest pose; all rotate with the torso.
    const math::Quat& q = track.state.pose.orientation;
    const math::Vec3& base = track.state.pose.position;
    s.body.head = {base + q.rotate({0.0, 0.65, 0.0}), q};
    s.body.left_hand = {base + q.rotate({-0.25, 0.35, -0.20}), q};
    s.body.right_hand = {base + q.rotate({0.25, 0.35, -0.20}), q};
    // The wire carries the first kExpressionChannels of the fused channels.
    const std::size_t channels = std::min(track.expression.size(), avatar::kExpressionChannels);
    s.expression.assign(track.expression.begin(), track.expression.begin() + channels);
    return s;
}

void EdgeServer::process_avatar_wire(const sync::AvatarWire& wire, sim::Time sent_at) {
    const sim::Time now = net_.clock().now();
    health_.observe(wire.participant.value(), wire.seq,
                    (now - wire.captured_at).to_ms(), now);
    auto [it, inserted] = remotes_.try_emplace(wire.participant);
    RemoteParticipant& rp = it->second;
    if (inserted) {
        rp.replica = std::make_unique<sync::AvatarReplica>(codec_, config_.jitter);
    }
    rp.source_room = wire.source_room;
    rp.replica->ingest(wire.bytes, wire.keyframe, now);
    if (!rp.anchored) try_anchor(wire.participant, rp);
    net_.metrics().sample(ids_.ingest_ms, (now - sent_at).to_ms());
}

void EdgeServer::try_anchor(ParticipantId who, RemoteParticipant& rp) {
    if (rp.anchored) return;
    const auto latest = rp.replica->latest();
    if (!latest.has_value()) return;
    // Reserved participants anchor at their held seat.
    const auto reservation = reserved_seats_.find(who);
    if (reservation != reserved_seats_.end()) {
        rp.seat = reservation->second;
        retargeter_.bind(who, latest->root.pose, seats_.seat(reservation->second).pose);
        rp.anchored = true;
        reserved_seats_.erase(reservation);
        return;
    }
    // First decodable state: pick a vacant seat and anchor the retargeting
    // transform there. A full room is checked before the matcher runs, since
    // every wire of an unseated participant comes back here.
    if (seats_.vacant_count() == 0) {
        if (!rp.seat_shortage_reported) {
            rp.seat_shortage_reported = true;
            ++seats_exhausted_;
        }
        return;
    }
    const std::vector<SeatRequest> req{{who, latest->root.pose.position}};
    const AssignmentResult res = assign_seats_optimal(seats_, req);
    const std::size_t seat_index = res.assignments.front().seat_index;
    seats_.occupy(seat_index, who);
    rp.seat = seat_index;
    retargeter_.bind(who, latest->root.pose, seats_.seat(seat_index).pose);
    rp.anchored = true;
}

std::optional<avatar::AvatarState> EdgeServer::display_remote(ParticipantId who,
                                                              sim::Time now) const {
    const auto it = remotes_.find(who);
    if (it == remotes_.end() || !it->second.anchored) return std::nullopt;
    const auto displayed = it->second.replica->display(now);
    if (!displayed.has_value()) return std::nullopt;
    return retargeter_.retarget(*displayed);
}

std::vector<ParticipantId> EdgeServer::remote_participants() const {
    std::vector<ParticipantId> out;
    out.reserve(remotes_.size());
    for (const auto& [who, rp] : remotes_) out.push_back(who);
    return out;
}

std::uint64_t EdgeServer::state_digest() const {
    common::Hash64 h;
    // std::map iteration is key-ordered, so the digest is independent of
    // insertion history — only of the state itself.
    h.size(locals_.size());
    for (const auto& [who, local] : locals_) {
        h.u32(who.value());
        h.boolean(local.seat.has_value());
        if (local.seat) h.size(*local.seat);
    }
    h.size(remotes_.size());
    for (const auto& [who, remote] : remotes_) {
        h.u32(who.value());
        h.u32(remote.source_room.value());
        h.boolean(remote.anchored);
        h.boolean(remote.seat.has_value());
        if (remote.seat) h.size(*remote.seat);
        h.u64(remote.replica->state_digest());
    }
    h.size(reserved_seats_.size());
    for (const auto& [who, seat] : reserved_seats_) h.u32(who.value()).size(seat);
    for (const auto& s : seats_.seats())
        h.boolean(s.occupied).u32(s.occupied ? s.occupant.value() : 0);
    h.u64(avatar_packets_in()).u64(packets_out_).u64(seats_exhausted_).u64(relayed_out_);
    h.u64(shed_streams()).u64(queue_dropped()).u64(restores()).u64(cold_starts());
    h.size(ingress_.depth()).size(ingress_.admitted());
    return h.digest();
}

std::uint64_t EdgeServer::remote_update_count(ParticipantId who) const {
    const auto it = remotes_.find(who);
    return it == remotes_.end() ? 0 : it->second.replica->decoded();
}

std::optional<avatar::AvatarState> EdgeServer::local_state(ParticipantId who,
                                                           sim::Time now) const {
    const auto track = fusion_.estimate(who, now);
    if (!track.has_value()) return std::nullopt;
    return synthesize_avatar(who, *track, now);
}

// ------------------------------------------------------------ crash recovery

void EdgeServer::make_checkpoint(recovery::ClassroomCheckpoint& cp) const {
    for (const Seat& s : seats_.seats()) {
        if (s.occupied) cp.seats.push_back(recovery::SeatRecord{s.index, s.occupant});
    }
    for (const auto& [who, seat] : reserved_seats_)
        cp.reservations.push_back(
            recovery::ReservationRecord{who, static_cast<std::uint32_t>(seat)});
    for (const auto& [who, rp] : remotes_) {
        const auto latest = rp.replica->latest();
        if (!latest.has_value()) continue;  // nothing decodable to persist yet
        recovery::ReplicaRecord rr;
        rr.participant = who;
        rr.source_room = rp.source_room;
        rr.anchored = rp.anchored;
        rr.has_seat = rp.seat.has_value();
        rr.seat_index = rp.seat.has_value() ? static_cast<std::uint32_t>(*rp.seat) : 0;
        if (const auto binding = retargeter_.binding_of(who)) {
            rr.source_anchor = binding->source_anchor;
            rr.seat_pose = binding->seat;
        }
        rr.captured_at_ns = latest->captured_at.nanos();
        rr.reference = codec_.encode_full(*latest);
        cp.replicas.push_back(std::move(rr));
    }
}

void EdgeServer::restore_checkpoint(const recovery::ClassroomCheckpoint& cp) {
    const sim::Time now = net_.clock().now();
    for (const auto& res : cp.reservations) {
        seats_.occupy(res.seat_index, res.participant);
        reserved_seats_[res.participant] = res.seat_index;
    }
    for (const auto& rr : cp.replicas) {
        auto [it, inserted] = remotes_.try_emplace(rr.participant);
        RemoteParticipant& rp = it->second;
        if (inserted)
            rp.replica = std::make_unique<sync::AvatarReplica>(codec_, config_.jitter);
        rp.source_room = rr.source_room;
        // The checkpointed reference re-enters as a keyframe, so later deltas
        // decode again (exact once the peer's forced keyframe lands).
        rp.replica->ingest(rr.reference, /*keyframe=*/true, now);
        if (rr.anchored) {
            if (rr.has_seat) {
                seats_.occupy(rr.seat_index, rr.participant);
                rp.seat = rr.seat_index;
            }
            retargeter_.bind(rr.participant, rr.source_anchor, rr.seat_pose);
            rp.anchored = true;
        }
    }
    // Any checkpointed occupancy not re-established above (e.g. a remote that
    // never became decodable) is reclaimed so the seat map matches.
    for (const auto& s : cp.seats) {
        if (!seats_.seat(s.seat_index).occupied) seats_.occupy(s.seat_index, s.occupant);
    }
}

void EdgeServer::wipe_replicated_state() {
    for (auto& [who, rp] : remotes_) {
        if (rp.seat.has_value()) seats_.vacate(*rp.seat);
        retargeter_.unbind(who);
    }
    remotes_.clear();
    for (const auto& [who, seat] : reserved_seats_) seats_.vacate(seat);
    reserved_seats_.clear();
    ingress_.crash();
}

void EdgeServer::on_node_state(bool up) {
    if (!up) {
        // Process crash: publishers, heartbeats and the checkpointer stop;
        // the replicated view (remote replicas, their seats, reservations)
        // is volatile and dies with the process. Locals are physically
        // present and re-sensed on restart, so fusion state stays.
        stop();
        wipe_replicated_state();
        return;
    }
    // Restart: restore from the last durable checkpoint, report the gap,
    // then resync live peers for everything newer.
    restorer_.restart(checkpointer_.get(), [this](recovery::ClassroomCheckpoint&& cp) {
        restore_checkpoint(cp);
        last_restored_ = std::move(cp);
    });
    start();
    // A real restart loses publisher delta chains; re-anchor the receivers.
    for (auto& [who, lp] : locals_) lp.publisher->request_keyframe();
    for (const PeerLink& peer : peers_) {
        if (resync_client_ != nullptr && net_.node_up(peer.node)) {
            resync_client_->request(peer.node);
        }
    }
}

std::vector<recovery::ResyncEntry> EdgeServer::build_resync_entries() const {
    const sim::Time now = net_.clock().now();
    std::vector<recovery::ResyncEntry> entries;
    entries.reserve(locals_.size());
    for (const auto& [who, lp] : locals_) {
        const auto state = local_state(who, now);
        if (!state.has_value()) continue;
        recovery::ResyncEntry e;
        e.participant = who;
        e.source_room = config_.room;
        e.captured_at = now;
        e.bytes = codec_.encode_full(*state);
        entries.push_back(std::move(e));
    }
    return entries;
}

}  // namespace mvc::edge
