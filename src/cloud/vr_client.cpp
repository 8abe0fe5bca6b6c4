#include "cloud/vr_client.hpp"

#include <cmath>
#include <utility>

namespace mvc::cloud {

VrClient::VrClient(net::Backend& net, net::NodeId node, ParticipantId who,
                   VrClientConfig config)
    : net_(net),
      node_(node),
      who_(who),
      config_(std::move(config)),
      latency_id_(net.metrics().series_id(config_.latency_metric)),
      demux_(net, node),
      avatar_tx_(net.open_channel({.src = node_,
                                   .flow = std::string{sync::kAvatarFlow},
                                   .options = {.priority = net::Priority::Realtime}})),
      codec_(config_.codec_bounds),
      rng_(net.clock().rng_stream("vrclient/" + config_.name)),
      health_(config_.path_health),
      degrade_(config_.degradation) {
    demux_.on_flow(std::string{sync::kAvatarFlow},
                   [this](net::Packet&& p) { handle_avatar_packet(std::move(p)); });
    demux_.on_flow(std::string{sync::kAvatarBatchFlow},
                   [this](net::Packet&& p) { handle_avatar_batch(std::move(p)); });
    sway_phase_ = rng_.uniform(0.0, 6.28318);
}

void VrClient::join(net::NodeId server, const math::Pose& seat) {
    server_ = server;
    seat_ = seat;
    state_.participant = who_;
    state_.root.pose = seat_;
    state_.expression.assign(avatar::kExpressionChannels, 0.0);
    joined_ = true;

    publisher_ = std::make_unique<sync::AvatarPublisher>(
        net_.clock(), codec_, config_.replication,
        [this](const std::vector<std::uint8_t>& bytes, bool keyframe, sim::Time captured_at) {
            sync::AvatarWire wire{who_, config_.room, keyframe, bytes, captured_at, {}};
            wire.seq = static_cast<std::uint32_t>(++updates_sent_);
            const std::size_t size = wire.wire_bytes();
            avatar_tx_.send_to(server_, size, std::move(wire));
        });
    // Pull-mode: timestamp states at the send tick so receiver-side jitter
    // reflects the network, not the behaviour sampling grid.
    publisher_->set_provider([this]() -> std::optional<avatar::AvatarState> {
        avatar::AvatarState s = state_;
        s.captured_at = net_.clock().now();
        return s;
    });

    // Behaviour runs at half the replication tick: plenty for seated motion.
    const double rate = std::max(10.0, config_.replication.tick_rate_hz / 2.0);
    behaviour_task_ =
        net_.clock().schedule_every(sim::Time::seconds(1.0 / rate), [this] { behave(); });
    behave();  // publish an initial state before the first tick
    publisher_->start();
    publishing_ = true;

    if (config_.auto_reconnect) {
        resync_ = std::make_unique<recovery::ResyncClient>(
            net_, demux_,
            [this](const recovery::ResyncSnapshot& snap, net::NodeId) {
                apply_snapshot(snap);
            });
        reconnector_ = std::make_unique<recovery::Reconnector>(
            net_.clock(), config_.reconnect, config_.name);
        reconnector_->on_state(
            [this](recovery::LinkState, recovery::LinkState to, int) {
                // Outage declared: stop flooding a dead path. The publisher
                // resumes from apply_snapshot once a probe lands.
                if (to == recovery::LinkState::BackingOff && publishing_) {
                    publisher_->stop();
                    publishing_ = false;
                }
            });
        reconnector_->on_probe([this] { resync_->request(server_); });
        reconnector_->start();
    }
    if (config_.self_adapt) {
        adapt_task_ = net_.clock().schedule_every(sim::Time::ms(250),
                                                  [this] { adapt_tick(); });
    }
    if (config_.qoe.enabled) {
        media_ = std::make_unique<qoe::MediaClient>(net_, demux_, who_, health_,
                                                    config_.qoe);
        // Gaze follows the behaviour model's head: forward is -z in the
        // head frame, same convention as the render/comfort layers.
        media_->start(server, [this] {
            return state_.body.head.orientation.rotate({0.0, 0.0, -1.0});
        });
    }
}

void VrClient::leave() {
    if (!joined_) return;
    joined_ = false;
    publisher_->stop();
    publishing_ = false;
    net_.clock().cancel(behaviour_task_);
    if (reconnector_) reconnector_->stop();
    reconnector_.reset();
    resync_.reset();
    if (config_.self_adapt) net_.clock().cancel(adapt_task_);
    if (media_) media_->stop();
    media_.reset();
}

void VrClient::apply_snapshot(const recovery::ResyncSnapshot& snap) {
    ++resyncs_applied_;
    const sim::Time now = net_.clock().now();
    if (!config_.lightweight) {
        for (const recovery::ResyncEntry& e : snap.entries) {
            if (e.participant == who_) continue;
            auto [it, inserted] = replicas_.try_emplace(e.participant);
            if (inserted)
                it->second = std::make_unique<sync::AvatarReplica>(codec_, config_.jitter);
            it->second->ingest(e.bytes, /*keyframe=*/true, now);
        }
    }
    // Sequence baselines are discontinuous across the outage; don't let the
    // gap read as loss.
    health_.reset();
    if (reconnector_) reconnector_->probe_succeeded();
    if (!publishing_ && joined_) {
        publisher_->start();
        publisher_->request_keyframe();
        publishing_ = true;
    }
}

void VrClient::adapt_tick() {
    const sim::Time now = net_.clock().now();
    health_.roll(now);
    if (degrade_.update(health_.loss(), health_.rtt_ms(), now)) {
        publisher_->set_rate_scale(degrade_.rate_scale());
        publisher_->set_threshold_scale(degrade_.threshold_scale());
    }
}

void VrClient::behave() {
    const double t = net_.clock().now().to_seconds();
    const double dt = 2.0 / std::max(10.0, config_.replication.tick_rate_hz);

    // Seated idle sway: slow figure-of-eight of the torso around the seat.
    const double sway = config_.sway_amplitude;
    const math::Vec3 offset{sway * std::sin(0.4 * t + sway_phase_), 0.0,
                            0.5 * sway * std::sin(0.8 * t + sway_phase_)};
    const math::Vec3 prev = state_.root.pose.position;
    state_.root.pose.position = seat_.position + offset;
    state_.root.linear_velocity = (state_.root.pose.position - prev) / dt;
    // Gentle head turning toward the stage with small wander.
    const double yaw_wander = 0.15 * std::sin(0.23 * t + sway_phase_);
    state_.root.pose.orientation =
        (math::Quat::from_axis_angle(math::Vec3::unit_y(), yaw_wander) * seat_.orientation)
            .normalized();

    // Occasional hand-raise gesture lasting ~2 s.
    if (gesture_phase_ <= 0.0 && rng_.chance(config_.gesture_rate * dt)) {
        gesture_phase_ = 2.0;
    }
    const math::Quat& q = state_.root.pose.orientation;
    const math::Vec3& base = state_.root.pose.position;
    state_.body.head = {base + q.rotate({0.0, 0.65, 0.0}), q};
    state_.body.left_hand = {base + q.rotate({-0.25, 0.35, -0.20}), q};
    if (gesture_phase_ > 0.0) {
        gesture_phase_ -= dt;
        const double lift = 0.5 * std::sin(3.14159 * std::min(1.0, (2.0 - gesture_phase_)));
        state_.body.right_hand = {base + q.rotate({0.25, 0.35 + lift, -0.10}), q};
    } else {
        state_.body.right_hand = {base + q.rotate({0.25, 0.35, -0.20}), q};
    }
    state_.captured_at = net_.clock().now();
}

void VrClient::handle_avatar_packet(net::Packet&& p) {
    ingest_wire(p.payload.get<sync::AvatarWire>());
}

void VrClient::handle_avatar_batch(net::Packet&& p) {
    const auto batch = p.payload.take<sync::AvatarBatchWire>();
    ++batches_received_;
    for (const sync::AvatarWire& wire : batch.updates) ingest_wire(wire);
}

void VrClient::ingest_wire(const sync::AvatarWire& wire) {
    if (wire.participant == who_) return;
    ++updates_received_;
    const sim::Time now = net_.clock().now();
    const double e2e_ms = (now - wire.captured_at).to_ms();
    net_.metrics().sample(latency_id_, e2e_ms);
    if (reconnector_) reconnector_->touch();
    // One shared estimator: the degradation ladder (self_adapt) and the QoE
    // media loop both read this PathHealth rather than keeping private
    // copies of the EWMA wiring. Avatar seq gaps only count as loss under
    // self_adapt (per-update fan-out): with aggregated egress the relay
    // deliberately suppresses updates (AOI, tier rate clocks, QoE scales),
    // so gaps are policy, not drops — the media loop observes the video
    // flow's own sequence instead (qoe::MediaClient::handle_video).
    if (config_.self_adapt)
        health_.observe(wire.participant.value(), wire.seq, e2e_ms, now);
    if (media_) media_->note_avatar(now, wire.wire_bytes());
    if (config_.lightweight) return;

    auto [it, inserted] = replicas_.try_emplace(wire.participant);
    if (inserted) {
        it->second = std::make_unique<sync::AvatarReplica>(codec_, config_.jitter);
    }
    it->second->ingest(wire.bytes, wire.keyframe, now);
}

std::optional<avatar::AvatarState> VrClient::view_of(ParticipantId peer,
                                                     sim::Time now) const {
    const auto it = replicas_.find(peer);
    if (it == replicas_.end()) return std::nullopt;
    return it->second->display(now);
}

}  // namespace mvc::cloud
