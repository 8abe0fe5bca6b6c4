#include "net/network.hpp"

#include <stdexcept>
#include <utility>

namespace mvc::net {

Network::Network(sim::Simulator& sim)
    : sim_(sim),
      node_down_drop_(metrics_.counter_id("net.node_down_drop")),
      no_route_(metrics_.counter_id("net.no_route")),
      dropped_no_handler_(metrics_.counter_id("net.dropped_no_handler")) {}

NodeId Network::add_node(std::string name, Region region) {
    NodeRec& rec = nodes_.emplace_back();
    rec.name = std::move(name);
    rec.region = region;
    // Ids are 1-based so that kInvalidNode (0) never aliases a real node.
    return static_cast<NodeId>(nodes_.size());
}

Network::NodeRec& Network::node_at(NodeId id) {
    if (id == kInvalidNode || id > nodes_.size())
        throw std::out_of_range("Network: unknown node id");
    return nodes_[id - 1];
}

const Network::NodeRec& Network::node_at(NodeId id) const {
    if (id == kInvalidNode || id > nodes_.size())
        throw std::out_of_range("Network: unknown node id");
    return nodes_[id - 1];
}

void Network::set_handler(NodeId node, PacketHandler handler) {
    node_at(node).handler = std::move(handler);
}

NodeId Network::add_remote(std::string name, Region region, RemoteEgress egress) {
    const NodeId id = add_node(std::move(name), region);
    node_at(id).egress = std::move(egress);
    return id;
}

void Network::inject(Packet&& p) { deliver(std::move(p)); }

NodeContext& Network::context(NodeId node) { return node_at(node).context; }
const NodeContext& Network::context(NodeId node) const { return node_at(node).context; }

Region Network::region_of(NodeId node) const { return node_at(node).region; }
const std::string& Network::name_of(NodeId node) const { return node_at(node).name; }

void Network::connect(NodeId a, NodeId b, const LinkParams& params) {
    node_at(a);
    node_at(b);  // validate
    const std::string fwd = name_of(a) + "->" + name_of(b);
    const std::string rev = name_of(b) + "->" + name_of(a);
    links_[{a, b}] = std::make_unique<Link>(sim_, fwd, params);
    links_[{b, a}] = std::make_unique<Link>(sim_, rev, params);
}

void Network::connect_wan(NodeId a, NodeId b, const WanTopology& wan) {
    connect(a, b, wan.path_params(region_of(a), region_of(b)));
}

bool Network::connected(NodeId a, NodeId b) const { return links_.contains({a, b}); }

Link* Network::link(NodeId a, NodeId b) {
    const auto it = links_.find({a, b});
    return it == links_.end() ? nullptr : it->second.get();
}

const Link* Network::link(NodeId a, NodeId b) const {
    const auto it = links_.find({a, b});
    return it == links_.end() ? nullptr : it->second.get();
}

void Network::set_link_up(NodeId a, NodeId b, bool up) {
    Link* fwd = link(a, b);
    Link* rev = link(b, a);
    if (fwd == nullptr || rev == nullptr)
        throw std::invalid_argument("set_link_up: nodes are not connected");
    if (fwd->is_up() != up) metrics_.count(up ? "net.link_restored" : "net.link_failed");
    fwd->set_up(up);
    rev->set_up(up);
}

bool Network::link_up(NodeId a, NodeId b) const {
    const Link* l = link(a, b);
    return l != nullptr && l->is_up();
}

void Network::set_node_up(NodeId node, bool up) {
    NodeRec& rec = node_at(node);
    if (rec.up == up) return;
    metrics_.count(up ? "net.node_restored" : "net.node_crashed");
    rec.up = up;
    for (const auto& obs : rec.observers) obs(node, up);
}

void Network::observe_node(NodeId node, NodeObserver observer) {
    node_at(node).observers.push_back(std::move(observer));
}

bool Network::node_up(NodeId node) const { return node_at(node).up; }

bool Network::do_send(NodeId src, NodeId dst, std::size_t size_bytes, FlowRef flow,
                      Payload payload, Priority priority) {
    const FlowMetrics& fm = flow.metric_ids();
    if (!node_up(src) || !node_up(dst)) {
        metrics_.count(node_down_drop_);
        return false;
    }
    Link* l = link(src, dst);
    if (l == nullptr) {
        metrics_.count(no_route_);
        return false;
    }
    if (!l->is_up()) {
        metrics_.count(fm.link_down_drop);
        return false;
    }
    Packet p;
    p.id = next_packet_id_++;
    p.src = src;
    p.dst = dst;
    p.size_bytes = size_bytes;
    p.sent_at = sim_.now();
    p.flow = flow.name();
    p.payload = std::move(payload);

    metrics_.count(fm.tx);
    metrics_.count(fm.tx_bytes, size_bytes + kHeaderBytes);

    // Both the local and the remote-proxy path model the full wire here via
    // admit(), so both draw the link's RNG in the same order. The tap fires
    // once the packet is on the wire — Accepted or Lost — never on Rejected.
    const LinkAdmission a = l->admit(size_bytes + kHeaderBytes);
    if (a.status == LinkAdmission::Status::Rejected) {
        metrics_.count(fm.queue_drop);
        return false;
    }
    if (tap_ != nullptr) tap_->on_send(p, priority);
    if (a.status == LinkAdmission::Status::Lost) return true;

    NodeRec& dst_rec = node_at(dst);
    if (dst_rec.egress) {
        // Remote proxy: the wire was modeled in this shard; hand the packet
        // (timestamped with its arrival) across the shard boundary.
        dst_rec.egress(std::move(p), a.arrival);
        return true;
    }
    sim_.schedule_at(a.arrival, [this, p = std::move(p)]() mutable { deliver(std::move(p)); });
    return true;
}

void Network::deliver(Packet&& p) {
    NodeRec& dst = node_at(p.dst);
    // The destination may have crashed while the packet was in flight.
    if (!dst.up) {
        metrics_.count(node_down_drop_);
        return;
    }
    // Resolve by name, not by a sender-side handle: an injected cross-shard
    // packet was sent through another Network and must intern its flow here.
    const FlowMetrics& fm = flows_.metrics_of(p.flow);
    metrics_.sample(fm.latency_ms, (sim_.now() - p.sent_at).to_ms());
    metrics_.count(fm.rx);
    if (dst.handler) {
        dst.handler(std::move(p));
    } else {
        metrics_.count(dropped_no_handler_);
    }
}

std::uint64_t Network::total_bytes_sent() const {
    std::uint64_t total = 0;
    for (const auto& [key, l] : links_) total += l->bytes_sent();
    return total;
}

}  // namespace mvc::net
