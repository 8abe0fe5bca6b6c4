#include "recovery/admission.hpp"

#include <cstddef>
#include <utility>

namespace mvc::recovery {

AdmissionGate::AdmissionGate(AdmissionParams params) : params_(params) {}

bool AdmissionGate::update(std::size_t depth, sim::Time now) {
    if (!params_.enabled) return false;

    if (depth >= params_.shed_enter_depth) {
        if (above_since_ == sim::Time::max()) above_since_ = now;
    } else {
        above_since_ = sim::Time::max();
    }
    if (depth <= params_.shed_exit_depth) {
        if (below_since_ == sim::Time::max()) below_since_ = now;
    } else {
        below_since_ = sim::Time::max();
    }

    if (!shedding_ && above_since_ != sim::Time::max() &&
        now - above_since_ >= params_.hold) {
        shedding_ = true;
        ++transitions_;
        above_since_ = sim::Time::max();
        return true;
    }
    if (shedding_ && below_since_ != sim::Time::max() &&
        now - below_since_ >= params_.hold) {
        shedding_ = false;
        ++transitions_;
        below_since_ = sim::Time::max();
        return true;
    }
    return false;
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
