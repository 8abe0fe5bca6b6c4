#pragma once
// Unidirectional point-to-point link: serialization at a fixed bandwidth,
// propagation delay with optional jitter (Gaussian base + Pareto spikes for
// WAN cross-traffic), Bernoulli loss, and a drop-tail byte queue. The link
// is the wire model only: admit() decides each packet's fate and arrival
// time, and the caller (net::Network) schedules the delivery.

#include <cstdint>
#include <string>

#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/clock.hpp"

namespace mvc::net {

struct LinkParams {
    /// One-way propagation delay.
    sim::Time latency{sim::Time::ms(1)};
    /// Std-dev of Gaussian jitter added to each packet (ms scale via Time).
    sim::Time jitter{sim::Time::zero()};
    /// Probability of a heavy-tail delay spike per packet, and its scale.
    double spike_probability{0.0};
    sim::Time spike_scale{sim::Time::ms(20)};
    /// Independent per-packet loss probability.
    double loss{0.0};
    /// Serialization bandwidth in bits per second; 0 = infinite.
    double bandwidth_bps{0.0};
    /// Drop-tail queue capacity in bytes awaiting serialization.
    std::size_t queue_bytes{256 * 1024};
};

/// Outcome of admitting one packet onto a link: Rejected (down link or queue
/// overflow — nothing was sent), Lost (accepted by the queue, dropped in
/// flight), or Accepted with the computed arrival instant.
struct LinkAdmission {
    enum class Status : std::uint8_t { Rejected, Lost, Accepted };
    Status status{Status::Rejected};
    sim::Time arrival{};
};

class Link {
public:
    Link(sim::Clock& clock, std::string name, LinkParams params);

    /// Charge the link for one packet of `wire_bytes` and compute its fate
    /// and arrival time without scheduling anything. The sharded engine
    /// relies on this: a cross-shard packet's full path (serialization,
    /// queueing, jitter, loss) is modeled in the sender's shard and only
    /// the delivery crosses the boundary.
    [[nodiscard]] LinkAdmission admit(std::size_t wire_bytes);

    [[nodiscard]] const LinkParams& params() const { return params_; }
    void set_params(const LinkParams& p) { params_ = p; }
    [[nodiscard]] const std::string& name() const { return name_; }

    /// Administrative state (fault injection). A down link rejects new sends;
    /// packets already in flight still arrive (they were on the wire).
    void set_up(bool up) { up_ = up; }
    [[nodiscard]] bool is_up() const { return up_; }
    [[nodiscard]] std::uint64_t dropped_down() const { return dropped_down_; }

    [[nodiscard]] std::uint64_t lost() const { return lost_; }
    [[nodiscard]] std::uint64_t dropped_queue() const { return dropped_queue_; }
    [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

    /// Bytes currently waiting for serialization (queue occupancy).
    [[nodiscard]] std::size_t backlog_bytes() const;

private:
    sim::Clock& sim_;
    std::string name_;
    LinkParams params_;
    sim::Rng rng_;
    sim::Time busy_until_{};
    bool up_{true};
    std::uint64_t lost_{0};
    std::uint64_t dropped_queue_{0};
    std::uint64_t dropped_down_{0};
    std::uint64_t bytes_sent_{0};

    [[nodiscard]] sim::Time tx_time(std::size_t bytes) const;
    [[nodiscard]] sim::Time draw_jitter();
};

}  // namespace mvc::net
