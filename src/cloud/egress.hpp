#pragma once
// The avatar egress stage every forwarding server shares: the cloud origin,
// the regional relays, and each CampusWorld building. It owns everything
// between "this server has an avatar update" and "packets leave the node":
//
//  - the Realtime avatar channel for single-update packets;
//  - the viewer registry, feeding InterestFanout (one tier-gated packet per
//    (update, viewer)) or, with aggregate_interval > 0,
//    sync::CellDeltaAggregator (one cell-grouped batch per viewer per
//    interval);
//  - the server-bound sync::WireBatcher (batch_interval > 0; otherwise
//    server-bound updates go out one packet each);
//  - the single-queue compute model (charge) and the egress counters.
//
// Two verbs: to_viewers and to_server. Routing stays with the owner — which
// servers get an update (relays, peers, an origin, a mirror), failover and
// liveness — and calls to_server once per destination it picks.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cloud/fanout.hpp"
#include "net/channel.hpp"
#include "sync/aggregator.hpp"
#include "sync/batcher.hpp"
#include "sync/wire.hpp"

namespace mvc::cloud {

/// Egress settings; CloudServerConfig and RelayConfig extend it.
struct EgressConfig {
    sync::InterestPolicy interest{};
    bool interest_enabled{true};
    /// Compute charged per inbound message and per forwarded copy.
    sim::Time process_in{sim::Time::us(20)};
    sim::Time process_out{sim::Time::us(5)};
    /// Coalesce server-bound updates into one batch packet per destination
    /// per interval (zero = one packet per update). Viewer fan-out stays
    /// per-update unless aggregation (below) is on.
    sim::Time batch_interval{};
    /// Aggregate viewer fan-out: dirty deltas accumulate for one interval,
    /// are grouped by interest-grid cell, and each viewer receives one
    /// tier-selected batch per interval (sync::CellDeltaAggregator) instead
    /// of one packet per update. Zero keeps the per-update fan-out.
    sim::Time aggregate_interval{};
    /// Cell edge length for egress aggregation (metres).
    double aggregate_cell_size{8.0};
};

class AvatarEgress {
public:
    AvatarEgress(net::Backend& net, net::NodeId node, const EgressConfig& config);

    AvatarEgress(const AvatarEgress&) = delete;
    AvatarEgress& operator=(const AvatarEgress&) = delete;

    // ----- viewer registry --------------------------------------------------

    void add_viewer(net::NodeId node, ParticipantId self, const math::Vec3& position);
    void remove_viewer(net::NodeId node);
    /// Where an entity sits; the per-update tier checks and the aggregator's
    /// cells read it for updates that carry no position of their own.
    void upsert_entity(ParticipantId who, const math::Vec3& position);
    void remove_entity(ParticipantId who);

    // ----- verbs ------------------------------------------------------------

    /// Ship one update to the viewers: per-update packets to each due
    /// viewer, all sharing `update`'s box, or one aggregator enqueue.
    void to_viewers(const net::Payload& update);
    /// Same, for an update not yet boxed: moved into the aggregator, or
    /// boxed once for the per-update sends. `position` is where the entity
    /// is now; the per-update path records it in the registry.
    void to_viewers(sync::AvatarWire&& wire, const math::Vec3& position);

    /// Batched goes through the batcher when batching is on; Direct always
    /// sends one packet now (the cloud's failover relaying).
    enum class Route { Batched, Direct };
    /// Ship one update to the server `dst`, sharing `update`'s box when sent
    /// as its own packet.
    void to_server(net::NodeId dst, const net::Payload& update,
                   Route route = Route::Batched);
    void to_server(net::NodeId dst, const sync::AvatarWire& wire);

    /// Queue `amount` of compute on the server's single queue; returns when
    /// it completes.
    sim::Time charge(sim::Time amount);

    // ----- counters ---------------------------------------------------------

    /// Per-update copies sent or batched (aggregated viewer egress is
    /// counted by the aggregator, not here) and their payload bytes.
    [[nodiscard]] std::uint64_t messages_out() const { return viewer_sends_ + server_sends_; }
    [[nodiscard]] std::uint64_t egress_bytes() const { return viewer_bytes_ + server_bytes_; }
    /// Updates that reached the viewer-bound wire, either path.
    [[nodiscard]] std::uint64_t viewer_updates_shipped() const;
    /// Viewer-bound bytes on the wire, packet headers included, either path.
    [[nodiscard]] std::uint64_t viewer_wire_bytes() const;
    [[nodiscard]] std::uint64_t suppressed_by_aoi() const;
    [[nodiscard]] std::uint64_t suppressed_by_rate() const;

    /// Viewer-bound aggregator; nullptr when aggregation is off.
    [[nodiscard]] sync::CellDeltaAggregator* aggregator() { return aggregator_.get(); }

private:
    net::Backend& net_;
    net::NodeId node_;
    sim::Time process_out_;
    /// Opened at construction for per-update fan-out, otherwise on the
    /// first single packet.
    std::optional<net::Channel> tx_;
    InterestFanout fanout_;
    std::unique_ptr<sync::WireBatcher> batcher_;
    std::unique_ptr<sync::CellDeltaAggregator> aggregator_;
    std::vector<net::NodeId> due_;
    sim::Time busy_until_{};
    std::uint64_t viewer_sends_{0};
    std::uint64_t viewer_bytes_{0};
    std::uint64_t server_sends_{0};
    std::uint64_t server_bytes_{0};

    [[nodiscard]] net::Channel& tx();
    [[nodiscard]] math::Vec3 position_of(ParticipantId who) const;
    void fan_out(const net::Payload& update, ParticipantId who, std::size_t size);
};

}  // namespace mvc::cloud
