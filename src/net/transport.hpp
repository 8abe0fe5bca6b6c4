#pragma once
// Transport layer above the raw packet fabric:
//  - PacketDemux: per-flow dispatch for a node's single packet handler.
//  - ReliableChannel: ACK + retransmission (Jacobson RTO, bounded attempts)
//    with optional in-order delivery; models the ARQ alternative in the FEC
//    experiments and reports segments abandoned during outages.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "math/stats.hpp"
#include "net/backend.hpp"

namespace mvc::net {

/// Splits a node's incoming packets by flow label. Install as the node
/// handler, then register per-flow callbacks.
class PacketDemux {
public:
    PacketDemux(Backend& net, NodeId node);

    void on_flow(std::string flow, PacketHandler handler);
    [[nodiscard]] NodeId node() const { return node_; }

private:
    Backend& net_;
    NodeId node_;
    sim::MetricId unmatched_id_;
    std::map<std::string, PacketHandler, std::less<>> handlers_;
};

struct ReliableOptions {
    /// Lower bound for the retransmission timeout.
    sim::Time rto_min{sim::Time::ms(20)};
    /// Initial RTO before any RTT sample (RFC 6298's conservative 1 s: a
    /// low initial RTO spuriously retransmits every segment on long paths,
    /// and Karn's rule then never lets the estimator converge).
    sim::Time rto_initial{sim::Time::seconds(1.0)};
    /// Deliver strictly in sequence order (head-of-line blocking) or as
    /// packets arrive.
    bool ordered{true};
    /// ACK packet size on the wire.
    std::size_t ack_bytes{16};
    /// Upper bound for the backed-off retransmission timeout.
    sim::Time rto_max{sim::Time::seconds(16.0)};
    /// Total transmission attempts per segment (first send included) before
    /// the channel gives up and reports the segment failed. 0 = unbounded
    /// (retry forever — only sensible on links that cannot stay down).
    int max_transmissions{12};
    /// Consecutive segment give-ups (no ACK in between) before the channel
    /// declares the peer dead and fires the dead-peer callback once. Any ACK
    /// re-arms the detector. 0 = never declare the peer dead.
    int dead_after_failures{3};
};

/// One-directional reliable stream src -> dst. Registers "<flow>" on the
/// destination demux and "<flow>.ack" on the source demux.
class ReliableChannel {
public:
    /// Callback on final delivery at the receiver: payload, original send
    /// time, and number of transmissions it took.
    using DeliveredFn =
        std::function<void(Payload payload, sim::Time sent_at, int transmissions)>;
    /// Callback when a segment exhausts max_transmissions without an ACK.
    using FailedFn =
        std::function<void(Payload payload, sim::Time first_sent, int transmissions)>;
    /// Callback when `dead_after_failures` consecutive segments failed with
    /// no ACK in between: the peer is presumed dead. Fires once per outage
    /// (latched until the next ACK); the session layer reacts by entering
    /// its reconnect path instead of silently retrying forever.
    using DeadPeerFn = std::function<void(NodeId dst, int consecutive_failures)>;

    ReliableChannel(Backend& net, PacketDemux& src_demux, PacketDemux& dst_demux,
                    std::string flow, ReliableOptions options = {});

    /// Register the codec for the ARQ's private data-segment wrapper under
    /// `data_tag` (the ack payload is a plain std::uint64_t sequence number
    /// and is registered by core::register_wire_codecs). The wrapper nests
    /// the application payload, so that payload's own codec must be
    /// registered too before a segment crosses a real wire.
    static void register_wire_codecs(class WireCodecs& codecs, std::uint16_t data_tag);

    void on_delivered(DeliveredFn fn) { delivered_cb_ = std::move(fn); }
    void on_failed(FailedFn fn) { failed_cb_ = std::move(fn); }
    void on_dead_peer(DeadPeerFn fn) { dead_peer_cb_ = std::move(fn); }

    /// Queue application data for reliable delivery.
    void send(std::size_t size_bytes, Payload payload);

    [[nodiscard]] sim::Time current_rto() const;
    [[nodiscard]] double smoothed_rtt_ms() const { return srtt_.value(); }
    [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
    [[nodiscard]] std::uint64_t delivered_count() const { return delivered_count_; }
    [[nodiscard]] std::uint64_t failed_count() const { return failed_count_; }
    [[nodiscard]] std::size_t in_flight() const { return outstanding_.size(); }
    /// Latched dead-peer verdict (cleared by the next ACK).
    [[nodiscard]] bool peer_dead() const { return peer_dead_; }
    [[nodiscard]] int consecutive_failures() const { return consecutive_failures_; }

private:
    struct Outstanding {
        std::size_t size_bytes;
        Payload payload;
        sim::Time first_sent;
        int transmissions{0};
        sim::EventHandle timer;
    };
    struct Wire {  // payload carried inside the network packet
        std::uint64_t seq;
        Payload app_payload;
        sim::Time first_sent;
        int transmission;
    };

    Backend& net_;
    NodeId src_;
    NodeId dst_;
    std::string flow_;
    // Pre-resolved send handles (data and ack flows) plus the ARQ counters,
    // so retransmission-heavy runs never rebuild labeled keys per segment.
    FlowRef flow_ref_;
    FlowRef ack_ref_;
    sim::MetricId retransmit_id_;
    sim::MetricId failed_id_;
    sim::MetricId peer_dead_id_;
    ReliableOptions options_;
    DeliveredFn delivered_cb_;
    FailedFn failed_cb_;
    DeadPeerFn dead_peer_cb_;
    int consecutive_failures_{0};
    bool peer_dead_{false};

    std::uint64_t next_seq_{1};
    std::map<std::uint64_t, Outstanding> outstanding_;

    // Receiver state (this object models both endpoints of the channel).
    std::uint64_t next_expected_{1};
    std::map<std::uint64_t, Wire> reorder_;

    // Jacobson/Karels RTO estimation (ms).
    math::Ewma srtt_{1.0 / 8.0};
    math::Ewma rttvar_{1.0 / 4.0};

    std::uint64_t retransmissions_{0};
    std::uint64_t delivered_count_{0};
    std::uint64_t failed_count_{0};

    void transmit(std::uint64_t seq);
    void give_up(std::uint64_t seq);
    void arm_timer(std::uint64_t seq);
    void handle_data(Packet&& p);
    void handle_ack(Packet&& p);
    void deliver_ready();
    void observe_rtt(double sample_ms);
};

}  // namespace mvc::net
