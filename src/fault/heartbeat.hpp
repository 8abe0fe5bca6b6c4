#pragma once
// Heartbeat-based peer liveness. Each monitored endpoint sends a small
// sequenced probe to every watched peer at a fixed interval on the "hb"
// flow; silence past the timeout declares the peer dead (failover), the
// next received probe declares it alive again (failback). The monitor keeps
// only liveness: a peer watched with a PathHealth (that peer's inbound path)
// feeds every received probe into it as one more sequenced stream.

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "net/channel.hpp"

namespace mvc::fault {

class PathHealth;

inline constexpr std::string_view kHeartbeatFlow = "hb";

/// PathHealth source key of a peer's probes inside that peer's estimator:
/// the invalid participant id, which no avatar stream carries.
inline constexpr std::uint32_t kProbeSource = 0;

struct HeartbeatParams {
    /// Off by default: existing healthy-network scenarios pay nothing.
    bool enabled{false};
    sim::Time interval{sim::Time::ms(100)};
    /// Silence before a peer is declared dead. Must exceed the interval by
    /// enough margin that routine jitter/loss does not flap liveness.
    sim::Time timeout{sim::Time::ms(350)};
    std::size_t wire_bytes{24};
};

struct HeartbeatWire {
    std::uint32_t seq{0};
};

class HeartbeatMonitor {
public:
    /// alive=false -> the peer just failed over; alive=true -> failback.
    using PeerStateFn = std::function<void(net::NodeId peer, bool alive)>;

    /// `metric_prefix` scopes this monitor's counters, e.g. "edge.cwb".
    HeartbeatMonitor(net::Backend& net, net::PacketDemux& demux, HeartbeatParams params,
                     std::string metric_prefix = "hb");

    HeartbeatMonitor(const HeartbeatMonitor&) = delete;
    HeartbeatMonitor& operator=(const HeartbeatMonitor&) = delete;

    /// `health`, when given, receives every probe from `peer` and forgets
    /// their baseline when `peer` is declared dead (an outage is not loss).
    void watch(net::NodeId peer, PathHealth* health = nullptr);
    void on_peer_state(PeerStateFn fn) { on_state_ = std::move(fn); }

    void start();
    void stop();

    /// Unwatched peers are reported alive (no evidence of death).
    [[nodiscard]] bool alive(net::NodeId peer) const;
    [[nodiscard]] sim::Time last_seen(net::NodeId peer) const;
    [[nodiscard]] std::uint64_t failovers() const { return failovers_; }
    [[nodiscard]] std::uint64_t failbacks() const { return failbacks_; }
    [[nodiscard]] const HeartbeatParams& params() const { return params_; }

private:
    struct Peer {
        bool alive{true};
        sim::Time last_seen{};
        std::uint32_t tx_seq{0};
        PathHealth* health{nullptr};
    };

    net::Backend& net_;
    net::NodeId node_;
    net::Channel tx_;
    HeartbeatParams params_;
    sim::MetricId failover_id_;
    sim::MetricId failback_id_;
    std::map<net::NodeId, Peer> peers_;
    PeerStateFn on_state_;
    sim::EventHandle task_;
    bool running_{false};
    std::uint64_t failovers_{0};
    std::uint64_t failbacks_{0};

    void tick();
    void handle(net::Packet&& p);
};

}  // namespace mvc::fault
