#include "cloud/egress.hpp"

#include <algorithm>
#include <utility>

namespace mvc::cloud {

AvatarEgress::AvatarEgress(net::Backend& net, net::NodeId node, const EgressConfig& config)
    : net_(net),
      node_(node),
      process_out_(config.process_out),
      fanout_(config.interest, config.interest_enabled) {
    if (config.batch_interval > sim::Time::zero()) {
        batcher_ = std::make_unique<sync::WireBatcher>(net_, node_, config.batch_interval);
    }
    if (config.aggregate_interval > sim::Time::zero()) {
        aggregator_ = std::make_unique<sync::CellDeltaAggregator>(
            net_, node_, config.aggregate_interval, config.aggregate_cell_size,
            config.interest);
    }
    // Per-update viewer fan-out opens the channel now. An aggregating egress
    // opens it on its first single packet, if it ever sends one, so a campus
    // building that only aggregates and batches registers no avatar-channel
    // metrics.
    if (!aggregator_) (void)tx();
}

net::Channel& AvatarEgress::tx() {
    if (!tx_) {
        tx_.emplace(net_.open_channel({.src = node_,
                                       .flow = std::string{sync::kAvatarFlow},
                                       .options = {.priority = net::Priority::Realtime}}));
    }
    return *tx_;
}

void AvatarEgress::add_viewer(net::NodeId node, ParticipantId self,
                              const math::Vec3& position) {
    fanout_.add_viewer(Viewer{node, self, position});
    if (aggregator_) aggregator_->add_viewer(node, self, position);
}

void AvatarEgress::remove_viewer(net::NodeId node) {
    fanout_.remove_viewer(node);
    if (aggregator_) aggregator_->remove_viewer(node);
}

void AvatarEgress::upsert_entity(ParticipantId who, const math::Vec3& position) {
    fanout_.upsert_entity(who, position);
}

void AvatarEgress::remove_entity(ParticipantId who) { fanout_.remove_entity(who); }

math::Vec3 AvatarEgress::position_of(ParticipantId who) const {
    const math::Vec3* pos = fanout_.entity_position(who);
    return pos != nullptr ? *pos : math::Vec3::zero();
}

sim::Time AvatarEgress::charge(sim::Time amount) {
    const sim::Time start = std::max(net_.clock().now(), busy_until_);
    busy_until_ = start + amount;
    return busy_until_;
}

// With aggregation on, an update is charged and handed to the aggregator
// once; per-viewer selection happens per cell at flush time, and the
// per-packet bytes show up on the aggregator's batcher.

void AvatarEgress::to_viewers(const net::Payload& update) {
    const auto& wire = update.get<sync::AvatarWire>();
    if (aggregator_) {
        charge(process_out_);
        aggregator_->enqueue(position_of(wire.participant), wire);
        return;
    }
    fan_out(update, wire.participant, wire.wire_bytes());
}

void AvatarEgress::to_viewers(sync::AvatarWire&& wire, const math::Vec3& position) {
    if (aggregator_) {
        charge(process_out_);
        aggregator_->enqueue(position, std::move(wire));
        return;
    }
    const ParticipantId who = wire.participant;
    const std::size_t size = wire.wire_bytes();
    fanout_.upsert_entity(who, position);
    fan_out(net::Payload{std::move(wire)}, who, size);
}

void AvatarEgress::fan_out(const net::Payload& update, ParticipantId who,
                           std::size_t size) {
    fanout_.due_targets_into(who, net_.clock().now(), due_);
    for (const net::NodeId target : due_) {
        charge(process_out_);
        ++viewer_sends_;
        viewer_bytes_ += size;
        tx().send_to(target, size, update);
    }
}

void AvatarEgress::to_server(net::NodeId dst, const net::Payload& update, Route route) {
    const auto& wire = update.get<sync::AvatarWire>();
    const std::size_t size = wire.wire_bytes();
    charge(process_out_);
    ++server_sends_;
    server_bytes_ += size;
    if (batcher_ && route == Route::Batched) {
        batcher_->enqueue(dst, wire);
    } else {
        tx().send_to(dst, size, update);
    }
}

void AvatarEgress::to_server(net::NodeId dst, const sync::AvatarWire& wire) {
    const std::size_t size = wire.wire_bytes();
    charge(process_out_);
    ++server_sends_;
    server_bytes_ += size;
    if (batcher_) {
        batcher_->enqueue(dst, wire);
    } else {
        tx().send_to(dst, size, wire);
    }
}

std::uint64_t AvatarEgress::viewer_updates_shipped() const {
    return viewer_sends_ + (aggregator_ ? aggregator_->updates_shipped() : 0);
}

std::uint64_t AvatarEgress::viewer_wire_bytes() const {
    std::uint64_t bytes = viewer_bytes_ + viewer_sends_ * net::kHeaderBytes;
    if (aggregator_) {
        const sync::WireBatcher& wb = aggregator_->batcher();
        bytes += wb.bytes_sent() + wb.batches_sent() * net::kHeaderBytes;
    }
    return bytes;
}

std::uint64_t AvatarEgress::suppressed_by_aoi() const {
    return fanout_.suppressed_by_aoi() + (aggregator_ ? aggregator_->suppressed_by_aoi() : 0);
}

std::uint64_t AvatarEgress::suppressed_by_rate() const {
    return fanout_.suppressed_by_rate() +
           (aggregator_ ? aggregator_->suppressed_by_rate() : 0);
}

}  // namespace mvc::cloud
