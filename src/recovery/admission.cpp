#include "recovery/admission.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace mvc::recovery {

AdmissionGate::AdmissionGate(AdmissionParams params)
    : params_(params), hysteresis_(params.hold, params.hold) {
    if (params_.shed_exit_depth >= params_.shed_enter_depth)
        throw std::invalid_argument(
            "AdmissionGate: shed_exit_depth must be below shed_enter_depth");
}

bool AdmissionGate::update(std::size_t depth, sim::Time now) {
    if (!params_.enabled) return false;
    const auto step = hysteresis_.update(!shedding_ && depth >= params_.shed_enter_depth,
                                         shedding_ && depth <= params_.shed_exit_depth, now);
    if (step == sim::Hysteresis::Step::none) return false;
    shedding_ = step == sim::Hysteresis::Step::enter;
    ++transitions_;
    return true;
}

AvatarIngress::AvatarIngress(net::Backend& net, net::PacketDemux& demux, std::string server,
                             AdmissionParams params, ChargeFn charge, ProcessFn process)
    : net_(net),
      server_(std::move(server)),
      charge_(std::move(charge)),
      process_(std::move(process)),
      shed_id_(net.metrics().counter_id("admission.shed", {{"server", server_}})),
      dropped_id_(net.metrics().counter_id("queue.dropped", {{"server", server_}})),
      depth_id_(net.metrics().series_id("queue.depth", {{"server", server_}})),
      gate_(params) {
    demux.on_flow(std::string{sync::kAvatarFlow}, [this](net::Packet&& p) {
        ingest(std::move(p.payload), p.src, p.sent_at);
    });
    demux.on_flow(std::string{sync::kAvatarBatchFlow}, [this](net::Packet&& p) {
        auto batch = p.payload.take<sync::AvatarBatchWire>();
        for (sync::AvatarWire& wire : batch.updates)
            ingest(net::Payload{std::move(wire)}, p.src, p.sent_at);
    });
}

void AvatarIngress::crash() {
    ring_.clear();
    head_ = depth_ = 0;
    admitted_.clear();
    ++epoch_;
}

void AvatarIngress::ingest(net::Payload&& update, net::NodeId src, sim::Time sent_at) {
    ++arrivals_;
    const ParticipantId who = update.get<sync::AvatarWire>().participant;
    if (!gate_.params().enabled) {
        auto task = [this, epoch = epoch_, update = std::move(update), src, sent_at]() mutable {
            if (epoch == epoch_) process_(std::move(update), src, sent_at);
        };
        // A pooled event block holds a max-aligned header, then the capture.
        static_assert(sizeof(task) + alignof(std::max_align_t) <= sim::EventPool::kBlockBytes,
                      "the direct-path closure must fit a pooled event block");
        net_.clock().schedule_at(charge_(), std::move(task));
        return;
    }

    // Depth-triggered shedding of never-seen (late-joining) streams keeps
    // the bounded queue serving the admitted class.
    if (gate_.update(depth_, net_.clock().now()))
        net_.metrics().count("admission.transition",
                             {{"server", server_},
                              {"state", gate_.shedding() ? "shed" : "admit"}});
    if (gate_.shedding() && !admitted_.contains(who)) {
        ++shed_;
        net_.metrics().count(shed_id_);
        return;
    }
    admitted_.insert(who);
    push(Queued{std::move(update), src, sent_at});
    net_.metrics().sample(depth_id_, static_cast<double>(depth_));
    // One drain per push; drops leave excess drains that find an empty queue.
    net_.clock().schedule_at(charge_(), [this, epoch = epoch_] {
        if (epoch != epoch_ || depth_ == 0) return;
        Queued q = std::move(ring_[head_]);
        head_ = (head_ + 1) % ring_.size();
        --depth_;
        process_(std::move(q.update), q.src, q.sent_at);
    });
}

void AvatarIngress::push(Queued&& q) {
    const std::size_t capacity = gate_.params().queue_capacity;
    if (depth_ == capacity) {  // full: the oldest wire goes (at capacity 0, the arrival)
        ++dropped_;
        net_.metrics().count(dropped_id_);
        if (capacity == 0) return;
        head_ = (head_ + 1) % ring_.size();
        --depth_;
    } else if (depth_ == ring_.size()) {  // grow by doubling, never past capacity
        std::rotate(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_), ring_.end());
        head_ = 0;
        ring_.reserve(std::min(capacity, std::max<std::size_t>(8, 2 * depth_)));
        ring_.resize(ring_.capacity());
    }
    ring_[(head_ + depth_++) % ring_.size()] = std::move(q);
}

}  // namespace mvc::recovery
