#pragma once
// Real-transport implementation of net::Backend: one UDP socket per local
// node, a poll(2) event loop, and a sim::WallClock for timers. The same
// model code that runs inside the discrete-event Network runs here over an
// actual wire — loopback in the benches and tests, any address a deployment
// cares to bind.
//
// Topology model: a process declares its *local* nodes with add_node()
// (each binds a socket) and its peers' nodes with add_peer() (address book
// entry only). NodeIds are positional — both processes must declare the
// same nodes in the same order so ids agree on the wire; the two-process
// demo and the bench both build their node tables from one shared list.
//
// What the simulation has and this backend does not: modeled links (the
// kernel's loopback/NIC queues are the link now), fault injection
// (node_up() is constantly true; observers are accepted and never fired),
// and global virtual time. Time here is the WallClock — monotonic ns since
// backend construction — so latency samples are only meaningful between
// nodes of one process (one epoch). Cross-process latency needs the clock
// sync layer, which is exactly the model code this seam exists to exercise.
//
// Determinism note: receive order is whatever the kernel delivers; the
// PacketTap fires per decoded datagram at ingress, immediately before
// handler dispatch, because that arrival order *is* the ground truth a
// deterministic re-run must reproduce (see src/replay/rerun.hpp).
//
// Single-threaded: send from the loop thread only, and drive the backend by
// calling poll_once()/run_for() from that thread.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/backend.hpp"
#include "net/wire_format.hpp"
#include "sim/wall_clock.hpp"

namespace mvc::net {

class RealUdpBackend final : public Backend {
public:
    struct Options {
        std::uint64_t seed{0x5eed};
        /// Address local node sockets bind to (and that peers implicitly
        /// share unless add_peer says otherwise).
        std::string bind_address{"127.0.0.1"};
        /// 0 = ephemeral ports (single-process tests; read back with
        /// port_of). Non-zero = node i binds base_port + i - 1, the fixed
        /// layout the two-process demo uses so both sides can predict each
        /// other's ports.
        std::uint16_t base_port{0};
    };

    RealUdpBackend();
    explicit RealUdpBackend(Options options);
    ~RealUdpBackend() override;

    RealUdpBackend(const RealUdpBackend&) = delete;
    RealUdpBackend& operator=(const RealUdpBackend&) = delete;

    /// Declare a node hosted by *this* process: binds its UDP socket.
    NodeId add_node(std::string name, Region region) override;
    /// Declare a node hosted by another process: records its address so
    /// sends can route to it. Takes the next NodeId, same as add_node.
    NodeId add_peer(std::string name, Region region, const std::string& address,
                    std::uint16_t port);

    void set_handler(NodeId node, PacketHandler handler) override;

    [[nodiscard]] Region region_of(NodeId node) const override;
    [[nodiscard]] const std::string& name_of(NodeId node) const override;
    [[nodiscard]] std::size_t node_count() const override { return nodes_.size(); }

    [[nodiscard]] NodeContext& context(NodeId node) override;
    [[nodiscard]] const NodeContext& context(NodeId node) const override;

    [[nodiscard]] bool node_up(NodeId) const override { return true; }
    void observe_node(NodeId node, NodeObserver observer) override;

    [[nodiscard]] FlowRef flow(std::string_view name) override {
        return flows_.flow(name);
    }

    using Backend::send;

    [[nodiscard]] sim::Clock& clock() override { return wall_; }
    [[nodiscard]] sim::WallClock& wall_clock() { return wall_; }

    [[nodiscard]] sim::MetricsRecorder& metrics() override { return metrics_; }
    [[nodiscard]] const sim::MetricsRecorder& metrics() const override {
        return metrics_;
    }

    void set_tap(PacketTap* tap) override { tap_ = tap; }
    [[nodiscard]] PacketTap* tap() const override { return tap_; }

    /// Bound port of a local node (after add_node resolved an ephemeral
    /// bind). Throws for peers — their port is whatever add_peer said.
    [[nodiscard]] std::uint16_t port_of(NodeId node) const;
    [[nodiscard]] bool is_local(NodeId node) const;

    /// One event-loop turn: wait up to `timeout` for datagrams or the next
    /// timer deadline (whichever is sooner), drain every ready socket, then
    /// fire due timers. Returns the number of datagrams dispatched.
    std::size_t poll_once(sim::Time timeout);
    /// Drive the loop for a wall-clock duration.
    void run_for(sim::Time duration);

    /// Test hook: drop decoded ingress datagrams for which `fn` returns
    /// true, before the tap and the handler see them — loss injected at the
    /// wire, as the loss model in the simulated Link would. nullptr clears.
    using IngressDrop = std::function<bool(const Packet&)>;
    void set_ingress_drop(IngressDrop fn) { ingress_drop_ = std::move(fn); }

    [[nodiscard]] std::uint64_t datagrams_sent() const { return datagrams_sent_; }
    /// Frame bytes of those datagrams: what the wire actually carried.
    [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
    [[nodiscard]] std::uint64_t datagrams_received() const {
        return datagrams_received_;
    }
    [[nodiscard]] std::uint64_t decode_errors() const { return decode_errors_; }
    /// Ingress datagrams rejected for `defect` (also exported as the labeled
    /// counter "net.ingress_rejected{reason=<defect>}"), so corrupt, foreign
    /// and truncated wire traffic is observable without the test hook.
    [[nodiscard]] std::uint64_t ingress_rejected(FrameDefect defect) const {
        return ingress_rejects_[static_cast<std::size_t>(defect)];
    }

protected:
    bool do_send(NodeId src, NodeId dst, std::size_t size_bytes, FlowRef flow,
                 Payload payload, Priority priority) override;

private:
    struct NodeRec {
        std::string name;
        Region region{Region::HongKong};
        PacketHandler handler;
        NodeContext context;
        int fd{-1};  ///< bound socket for local nodes; -1 for peers
        std::uint32_t addr_be{0};
        std::uint16_t port{0};
    };

    Options options_;
    sim::WallClock wall_;
    std::vector<NodeRec> nodes_;
    sim::MetricsRecorder metrics_;
    FlowTable flows_{metrics_};
    PacketTap* tap_{nullptr};
    IngressDrop ingress_drop_;
    std::uint64_t next_packet_id_{1};
    std::uint64_t datagrams_sent_{0};
    std::uint64_t bytes_sent_{0};
    std::uint64_t datagrams_received_{0};
    std::uint64_t decode_errors_{0};
    // Fixed counters off the per-flow path, resolved at construction.
    sim::MetricId no_route_;
    sim::MetricId send_error_;
    sim::MetricId unencodable_;
    sim::MetricId decode_error_;
    sim::MetricId dropped_no_handler_;
    sim::MetricId test_drop_;
    // Per-defect ingress rejects, indexed by FrameDefect.
    std::array<std::uint64_t, kFrameDefectCount> ingress_rejects_{};
    std::array<sim::MetricId, kFrameDefectCount> ingress_reject_ids_{};

    NodeRec& node_at(NodeId id);
    const NodeRec& node_at(NodeId id) const;
    NodeId add_entry(NodeRec rec);
    void drain_socket(NodeRec& rec);
    void dispatch(Packet&& p, Priority priority);
};

}  // namespace mvc::net
