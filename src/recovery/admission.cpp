#include "recovery/admission.hpp"

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
        ingest(p.payload.take<sync::AvatarWire>(), p.src, p.sent_at);
    });
    demux.on_flow(std::string{sync::kAvatarBatchFlow}, [this](net::Packet&& p) {
        auto batch = p.payload.take<sync::AvatarBatchWire>();
        for (sync::AvatarWire& wire : batch.updates) ingest(std::move(wire), p.src, p.sent_at);
    });
}

void AvatarIngress::crash() {
    queue_.clear();
    admitted_.clear();
    ++epoch_;
}

void AvatarIngress::ingest(sync::AvatarWire&& wire, net::NodeId src, sim::Time sent_at) {
    ++arrivals_;
    if (!gate_.params().enabled) {
        auto task = [this, epoch = epoch_, wire = std::move(wire), src, sent_at]() mutable {
            if (epoch == epoch_) process_(std::move(wire), src, sent_at);
        };
        // A pooled event block holds a max-aligned header, then the capture.
        static_assert(sizeof(task) + alignof(std::max_align_t) <= sim::EventPool::kBlockBytes,
                      "the direct-path closure must fit a pooled event block");
        net_.clock().schedule_at(charge_(), std::move(task));
        return;
    }

    // Depth-triggered shedding of never-seen (late-joining) streams keeps
    // the bounded queue serving the admitted class.
    if (gate_.update(queue_.size(), net_.clock().now()))
        net_.metrics().count("admission.transition",
                             {{"server", server_},
                              {"state", gate_.shedding() ? "shed" : "admit"}});
    if (gate_.shedding() && !admitted_.contains(wire.participant)) {
        ++shed_;
        net_.metrics().count(shed_id_);
        return;
    }
    admitted_.insert(wire.participant);
    queue_.push_back(Queued{std::move(wire), src, sent_at});
    if (queue_.size() > gate_.params().queue_capacity) {
        queue_.pop_front();
        ++dropped_;
        net_.metrics().count(dropped_id_);
    }
    net_.metrics().sample(depth_id_, static_cast<double>(queue_.size()));
    // One drain per push; drops leave excess drains that find an empty queue.
    net_.clock().schedule_at(charge_(), [this, epoch = epoch_] {
        if (epoch != epoch_ || queue_.empty()) return;
        Queued q = std::move(queue_.front());
        queue_.pop_front();
        process_(std::move(q.wire), q.src, q.sent_at);
    });
}

}  // namespace mvc::recovery
