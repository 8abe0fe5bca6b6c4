#include "fault/heartbeat.hpp"

#include <utility>

#include "fault/degradation.hpp"

namespace mvc::fault {

HeartbeatMonitor::HeartbeatMonitor(net::Backend& net, net::PacketDemux& demux,
                                   HeartbeatParams params, std::string metric_prefix)
    : net_(net),
      node_(demux.node()),
      tx_(net.open_channel({.src = node_,
                            .flow = std::string{kHeartbeatFlow},
                            .options = {.priority = net::Priority::Control}})),
      params_(params),
      failover_id_(net.metrics().counter_id(metric_prefix + ".failover")),
      failback_id_(net.metrics().counter_id(metric_prefix + ".failback")) {
    demux.on_flow(std::string{kHeartbeatFlow},
                  [this](net::Packet&& p) { handle(std::move(p)); });
}

void HeartbeatMonitor::watch(net::NodeId peer, PathHealth* health) {
    Peer rec;
    rec.last_seen = net_.clock().now();
    rec.health = health;
    peers_.emplace(peer, rec);
}

void HeartbeatMonitor::start() {
    if (running_) return;
    running_ = true;
    // Grace period: a peer is not dead until it has had `timeout` to speak.
    for (auto& [peer, rec] : peers_) rec.last_seen = net_.clock().now();
    task_ = net_.clock().schedule_every(params_.interval, [this] { tick(); });
}

void HeartbeatMonitor::stop() {
    if (!running_) return;
    running_ = false;
    net_.clock().cancel(task_);
}

bool HeartbeatMonitor::alive(net::NodeId peer) const {
    const auto it = peers_.find(peer);
    return it == peers_.end() || it->second.alive;
}

sim::Time HeartbeatMonitor::last_seen(net::NodeId peer) const {
    const auto it = peers_.find(peer);
    return it == peers_.end() ? sim::Time::zero() : it->second.last_seen;
}

void HeartbeatMonitor::tick() {
    const sim::Time now = net_.clock().now();
    for (auto& [peer, rec] : peers_) {
        tx_.send_to(peer, params_.wire_bytes, HeartbeatWire{++rec.tx_seq});
        if (rec.alive && now - rec.last_seen > params_.timeout) {
            rec.alive = false;
            // Dead peers are a routing problem, not a congestion signal: the
            // probes the outage swallowed must not count as loss on failback.
            if (rec.health != nullptr) rec.health->forget(kProbeSource);
            ++failovers_;
            net_.metrics().count(failover_id_);
            if (on_state_) on_state_(peer, false);
        }
    }
}

void HeartbeatMonitor::handle(net::Packet&& p) {
    const auto it = peers_.find(p.src);
    if (it == peers_.end()) return;  // not a watched peer
    Peer& rec = it->second;
    const sim::Time now = net_.clock().now();
    rec.last_seen = now;
    if (rec.health != nullptr)
        rec.health->observe(kProbeSource, p.payload.get<HeartbeatWire>().seq, now);

    if (!rec.alive) {
        rec.alive = true;
        ++failbacks_;
        net_.metrics().count(failback_id_);
        if (on_state_) on_state_(p.src, true);
    }
}

}  // namespace mvc::fault
