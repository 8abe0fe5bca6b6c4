#pragma once
// Campus-scale workload engine: the dense hot path (E22) assembled into a
// runnable world. A campus is B buildings, each its own shard: every
// building sweeps its avatars through a core::AvatarPool (SoA columns) and
// egresses dirty deltas to that building's viewer nodes through the
// servers' shared cloud::AvatarEgress — either per-update fan-out (one tier
// check and one packet per (update, viewer) pair) or cell-delta aggregation
// (per-cell grouping, one coalesced batch per viewer per interval). A thin
// cross-shard mirror ships a strided sample of every building's updates to
// the origin shard as the egress's server-bound batches, so the flat
// proxy-table deliver path stays on the hot path too.
//
// Everything is deterministic for any worker-thread count: avatar motion is
// stateless in (seed, index, t) (session::CrowdMotion), per-shard event
// streams are sequential, and the boundary exchange is ordered by the
// sharded engine — metrics_json() is byte-identical across 1/2/4/8 threads.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/egress.hpp"
#include "core/avatar_pool.hpp"
#include "core/sharded_world.hpp"
#include "net/channel.hpp"
#include "session/behaviour.hpp"
#include "sync/interest.hpp"

namespace mvc::core {

struct CampusConfig {
    /// One shard per building, plus shard 0 for the origin.
    std::size_t buildings{4};
    std::size_t classrooms_per_building{25};
    std::size_t avatars_per_classroom{100};
    /// Receiving client nodes per building (placed at classroom centres).
    std::size_t viewers_per_building{8};
    double tick_rate_hz{20.0};
    /// Aggregation cell edge (metres).
    double cell_size_m{8.0};
    /// Positions that moved less than this since the last shipped update
    /// are not re-sent (the dirty threshold of the SoA sweep).
    double dirty_threshold_m{0.02};
    /// true = cell-delta aggregated egress; false = per-update fan-out
    /// baseline (the ablation the bytes/avatar claim is measured against).
    bool aggregate{true};
    sim::Time aggregate_interval{sim::Time::ms(50)};
    /// Every stride-th avatar's updates are mirrored cross-shard to the
    /// origin (batched); 0 disables the mirror.
    std::size_t mirror_stride{64};
    sim::Time mirror_interval{sim::Time::ms(50)};
    std::uint64_t seed{42};
    sync::InterestPolicy interest{};
    session::CrowdMotion motion{};
};

class CampusWorld {
public:
    explicit CampusWorld(CampusConfig config = {});

    CampusWorld(const CampusWorld&) = delete;
    CampusWorld& operator=(const CampusWorld&) = delete;

    /// Advance the whole campus to absolute time `until`. Returns events
    /// executed across shards.
    std::size_t run_until(sim::Time until, std::size_t threads = 1);

    [[nodiscard]] sim::Simulator& simulator(std::size_t shard) {
        return world_.simulator(shard);
    }
    [[nodiscard]] net::Network& network(std::size_t shard) {
        return world_.network(shard);
    }
    [[nodiscard]] ShardedWorld& sharded() { return world_; }

    [[nodiscard]] std::size_t avatar_count() const;
    [[nodiscard]] std::size_t viewer_count() const;
    [[nodiscard]] const CampusConfig& config() const { return config_; }

    /// Client-bound egress bytes (payload + packet headers), summed over
    /// buildings; the aggregated/baseline comparison surface.
    [[nodiscard]] std::uint64_t egress_bytes() const;
    /// Updates delivered into viewer handlers, summed over viewers.
    [[nodiscard]] std::uint64_t viewer_updates() const;
    /// Avatar batches delivered into viewer handlers, summed over viewers.
    [[nodiscard]] std::uint64_t viewer_batches() const;
    [[nodiscard]] std::uint64_t updates_shipped() const;
    [[nodiscard]] std::uint64_t suppressed_by_aoi() const;
    [[nodiscard]] std::uint64_t suppressed_by_rate() const;
    /// Updates the origin received over the cross-shard mirror.
    [[nodiscard]] std::uint64_t mirror_updates() const { return mirror_updates_; }
    /// Rolling digest of everything the origin decoded off the mirror.
    /// Shard-0 state only, so a shard-0 probe may read it mid-run.
    [[nodiscard]] std::uint64_t origin_digest() const { return origin_digest_; }
    [[nodiscard]] std::uint64_t lookahead_violations() const {
        return world_.lookahead_violations();
    }

    /// Order-sensitive digest of everything every viewer (and the origin)
    /// decoded, folded in fixed building/viewer order.
    [[nodiscard]] std::uint64_t state_digest() const;

    /// Merged per-shard metrics plus the campus counters and digest —
    /// byte-identical across worker-thread counts for a fixed config.
    [[nodiscard]] sim::MetricsRecorder merged_metrics() const;
    [[nodiscard]] std::string metrics_json() const;

private:
    struct ViewerEndpoint {
        net::NodeId node{net::kInvalidNode};
        ParticipantId self;
        math::Vec3 position;
        std::unique_ptr<net::PacketDemux> demux;
        std::uint64_t updates{0};
        std::uint64_t batches{0};
        std::uint64_t bytes{0};
        std::uint64_t digest{0};
    };

    struct Building {
        std::size_t index{0};
        net::Network* net{nullptr};
        net::NodeId gateway{net::kInvalidNode};
        net::NodeId origin_proxy{net::kInvalidNode};
        AvatarPool pool;
        std::vector<math::Vec3> anchors;
        std::vector<math::Vec3> last_sent;
        std::vector<ViewerEndpoint> viewers;
        /// Viewer fan-out or aggregation, plus the batched origin mirror.
        std::unique_ptr<cloud::AvatarEgress> egress;
        std::uint64_t ticks{0};
        std::uint64_t updates_generated{0};
    };

    CampusConfig config_;
    ShardedWorld world_;
    GlobalNode origin_;
    std::unique_ptr<net::PacketDemux> origin_demux_;
    std::vector<std::unique_ptr<Building>> buildings_;
    std::uint64_t mirror_updates_{0};
    std::uint64_t origin_digest_{0};

    void build_building(std::size_t index);
    void tick(Building& b);
    static void fold_wire(std::uint64_t& digest, const sync::AvatarWire& wire);
};

}  // namespace mvc::core
