#pragma once
// The simulated transport backend: node registry plus the link fabric
// between nodes. Endpoints register a packet handler; send picks the
// (direct) link for the node pair, charges it, and invokes the destination
// handler on delivery. Per-flow traffic and latency telemetry land in the
// shared MetricsRecorder.
//
// Network implements net::Backend (see backend.hpp) — model code holds a
// Backend& and never names this class — and adds what only a simulation
// has: explicit links with modeled impairments, WAN topology wiring, the
// fault-injection surface (link/node up/down), and cross-shard remote
// proxies for the sharded engine.
//
// Fault surface: links and nodes carry administrative up/down state driven
// by the fault-injection layer. A down link rejects new sends; a down node
// neither sends, receives, nor completes in-flight deliveries addressed to
// it. Every drop is counted so recovery experiments can audit the outage.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/backend.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mvc::net {

class Network final : public Backend {
public:
    explicit Network(sim::Simulator& sim);

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    NodeId add_node(std::string name, Region region) override;
    void set_handler(NodeId node, PacketHandler handler) override;

    /// Cross-shard egress hook: a *remote proxy* node stands in for a node
    /// hosted by another shard's Network. Sends addressed to it are charged
    /// to the local link as usual, but instead of a local delivery the
    /// packet (with its computed arrival instant) is handed to `egress`,
    /// which ships it across the shard boundary. See core::ShardedWorld.
    using RemoteEgress = std::function<void(Packet&&, sim::Time deliver_at)>;
    NodeId add_remote(std::string name, Region region, RemoteEgress egress);

    /// Deliver a packet that crossed the shard boundary: runs the normal
    /// receive path (rx/latency metrics, destination handler). `p.dst` must
    /// be a node of *this* network.
    void inject(Packet&& p);

    [[nodiscard]] Region region_of(NodeId node) const override;
    [[nodiscard]] const std::string& name_of(NodeId node) const override;
    [[nodiscard]] std::size_t node_count() const override { return nodes_.size(); }

    [[nodiscard]] NodeContext& context(NodeId node) override;
    [[nodiscard]] const NodeContext& context(NodeId node) const override;

    /// Create a bidirectional connection with identical parameters each way.
    void connect(NodeId a, NodeId b, const LinkParams& params);
    /// Connect using WAN-path parameters derived from the nodes' regions.
    void connect_wan(NodeId a, NodeId b, const WanTopology& wan);
    [[nodiscard]] bool connected(NodeId a, NodeId b) const;
    /// Directed link a->b; nullptr when not connected.
    [[nodiscard]] Link* link(NodeId a, NodeId b);
    [[nodiscard]] const Link* link(NodeId a, NodeId b) const;

    /// Fault injection: take both directions of a link down/up. Throws if the
    /// nodes are not connected.
    void set_link_up(NodeId a, NodeId b, bool up);
    [[nodiscard]] bool link_up(NodeId a, NodeId b) const;
    /// Fault injection: crash/restart a node. A down node drops all sends
    /// from and to it, including in-flight deliveries.
    void set_node_up(NodeId node, bool up);
    [[nodiscard]] bool node_up(NodeId node) const override;

    void observe_node(NodeId node, NodeObserver observer) override;

    [[nodiscard]] FlowRef flow(std::string_view name) override {
        return flows_.flow(name);
    }

    using Backend::send;

    void set_tap(PacketTap* tap) override { tap_ = tap; }
    [[nodiscard]] PacketTap* tap() const override { return tap_; }

    [[nodiscard]] sim::MetricsRecorder& metrics() override { return metrics_; }
    [[nodiscard]] const sim::MetricsRecorder& metrics() const override {
        return metrics_;
    }
    [[nodiscard]] sim::Clock& clock() override { return sim_; }
    [[nodiscard]] sim::Simulator& simulator() { return sim_; }

    /// Total wire bytes accepted across all links.
    [[nodiscard]] std::uint64_t total_bytes_sent() const;

protected:
    bool do_send(NodeId src, NodeId dst, std::size_t size_bytes, FlowRef flow,
                 Payload payload, Priority priority) override;

private:
    struct NodeRec {
        std::string name;
        Region region{Region::HongKong};
        PacketHandler handler;
        bool up{true};
        NodeContext context;
        std::vector<NodeObserver> observers;
        RemoteEgress egress;  // set only on remote proxy nodes
    };

    sim::Simulator& sim_;
    std::vector<NodeRec> nodes_;
    std::map<std::pair<NodeId, NodeId>, std::unique_ptr<Link>> links_;
    sim::MetricsRecorder metrics_;
    std::uint64_t next_packet_id_{1};
    PacketTap* tap_{nullptr};
    FlowTable flows_{metrics_};
    // Fixed counters off the per-flow path, resolved at construction.
    sim::MetricId node_down_drop_;
    sim::MetricId no_route_;
    sim::MetricId dropped_no_handler_;

    void deliver(Packet&& p);
    NodeRec& node_at(NodeId id);
    const NodeRec& node_at(NodeId id) const;
};

}  // namespace mvc::net
