#include "qoe/media_client.hpp"

#include <cmath>
#include <utility>

namespace mvc::qoe {

MediaClient::MediaClient(net::Backend& net, net::PacketDemux& demux, ParticipantId who,
                         fault::PathHealth& health, MediaClientConfig config)
    : net_(net),
      who_(who),
      config_(std::move(config)),
      health_(health),
      abr_(config_.ladder.empty() ? media::default_ladder() : config_.ladder,
           config_.abr),
      allocator_(config_.budget),
      feedback_tx_(net.open_channel({.src = demux.node(),
                                     .flow = std::string{kQoeFeedbackFlow},
                                     .options = {.priority = net::Priority::Control}})),
      capacity_(config_.capacity_alpha),
      client_label_(std::to_string(who.value())) {
    // The receiver's freeze accounting uses one fps for the whole session
    // (the top rung's); lower rungs at lower fps slightly under-count
    // per-frame freeze time, which is conservative in the right direction.
    receiver_ = std::make_unique<media::VideoReceiver>(
        net_.clock(), abr_.ladder().back(), config_.playout_delay);
    demux.on_flow(std::string{kVideoFlow},
                  [this](net::Packet&& p) { handle_video(std::move(p)); });

    sim::MetricsRecorder& m = net_.metrics();
    score_id_ = m.series_id("qoe.score", {{"class", config_.klass}});
    score_client_id_ =
        m.series_id("qoe.score", {{"class", config_.klass}, {"client", client_label_}});
    staleness_id_ = m.series_id("qoe.staleness_ms", {{"class", config_.klass}});
    rung_id_ = m.series_id("qoe.rung", {{"class", config_.klass}});
    stall_id_ = m.counter_id("qoe.stall_ms", {{"class", config_.klass}});
    switches_id_ = m.counter_id("qoe.switches", {{"class", config_.klass}});
}

void MediaClient::start(net::NodeId server, GazeFn gaze) {
    if (running_) return;
    running_ = true;
    server_ = server;
    gaze_ = std::move(gaze);
    started_ = net_.clock().now();
    last_tick_ = started_;
    last_avatar_rx_ = started_;
    tick_task_ =
        net_.clock().schedule_every(config_.feedback_interval, [this] { tick(); });
}

void MediaClient::stop() {
    if (!running_) return;
    running_ = false;
    net_.clock().cancel(tick_task_);
}

void MediaClient::note_avatar(sim::Time now, std::size_t bytes) {
    last_avatar_rx_ = now;
    window_bytes_ += bytes;
}

void MediaClient::handle_video(net::Packet&& p) {
    const sim::Time now = net_.clock().now();
    window_bytes_ += p.size_bytes;
    const auto wire = p.payload.take<VideoWire>();
    // The video flow is the honest loss probe: every packet is shipped (no
    // interest filtering), so a sequence gap is a genuine drop. Feeds the
    // same PathHealth the degradation ladder reads — one shared estimator.
    health_.observe(kVideoHealthSource, wire.seq,
                    (now - wire.packet.captured_at).to_ms(), now);
    receiver_->ingest(wire.packet);
}

void MediaClient::tick() {
    const sim::Time now = net_.clock().now();
    health_.roll(now);

    // Delivered goodput over the tick window -> capacity estimate. No
    // delivery yet means no estimate (capacity 0 skips the ABR's throughput
    // criteria rather than reading as a dead link). The estimate only trusts
    // samples taken under load: it ratchets up freely (delivering more than
    // we thought possible is proof), but decays only while the path shows
    // loss — on an unsaturated link delivered goodput equals the encode
    // rate, which says nothing about capacity, and folding it in would walk
    // the estimate down to the current rung and wedge the up-switch gate.
    const double window_s = (now - last_tick_).to_seconds();
    const double inst_bps =
        window_s > 0.0 ? static_cast<double>(window_bytes_) * 8.0 / window_s : 0.0;
    if (inst_bps > 0.0 &&
        (!capacity_.initialized() || inst_bps > capacity_.value() || health_.loss() > 0.0))
        capacity_.add(inst_bps);
    window_bytes_ = 0;
    last_tick_ = now;

    abr_.update(health_.loss(), health_.rtt_ms(), capacity_.value(), now);
    const std::size_t tiers = config_.interest.tiers().size();
    LodAllocation alloc =
        allocator_.allocate(capacity_.value(), abr_.profile().bitrate_bps, tiers);

    QoeFeedbackWire wire{.participant = who_,
                         .seq = ++feedback_seq_,
                         .rung = abr_.rung(),
                         .gaze = gaze_ ? gaze_() : math::Vec3{},
                         .fovea_cos = config_.budget.fovea_cos,
                         .foveal = std::move(alloc.foveal),
                         .peripheral = std::move(alloc.peripheral)};
    const std::size_t size = wire.wire_bytes();
    feedback_tx_.send_to(server_, size, std::move(wire));

    const double staleness_ms = (now - last_avatar_rx_).to_ms();
    const sim::Time elapsed = now - started_;
    last_score_ = qoe_score({.stall_seconds = receiver_->stats().freeze_seconds,
                             .session_seconds = elapsed.to_seconds(),
                             .avatar_staleness_ms = staleness_ms,
                             .switches_per_minute = abr_.switches_per_minute(elapsed),
                             .delivered_rung = abr_.rung(),
                             .top_rung = abr_.top_rung()},
                            config_.score);

    sim::MetricsRecorder& m = net_.metrics();
    m.sample(score_id_, last_score_);
    m.sample(score_client_id_, last_score_);
    m.sample(staleness_id_, staleness_ms);
    m.sample(rung_id_, static_cast<double>(abr_.rung()));
    // Counters take cumulative-value deltas so they stay exact under the
    // per-tick rounding.
    const auto stall_ms_total = static_cast<std::uint64_t>(
        std::llround(receiver_->stats().freeze_seconds * 1000.0));
    m.count(stall_id_, stall_ms_total - stall_ms_reported_);
    stall_ms_reported_ = stall_ms_total;
    m.count(switches_id_, abr_.switches() - switches_reported_);
    switches_reported_ = abr_.switches();
}

}  // namespace mvc::qoe
