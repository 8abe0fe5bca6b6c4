#pragma once
// Interest-gated fan-out bookkeeping shared by the cloud server and the
// regional relays: which attached viewers should receive an update for a
// given entity right now, at which tier rate, given the VR-classroom seat
// geometry. Viewers are indexed in a sync::InterestGrid, so the per-update
// question "which viewers are in replication range" is a spatial query into
// a caller-owned scratch buffer instead of a linear scan — allocation-free
// in steady state via due_targets_into.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "sync/interest.hpp"

namespace mvc::cloud {

struct Viewer {
    net::NodeId node{net::kInvalidNode};
    ParticipantId self;
    math::Vec3 position;
};

class InterestFanout {
public:
    explicit InterestFanout(sync::InterestPolicy policy = {}, bool enabled = true);

    [[nodiscard]] bool enabled() const { return enabled_; }

    void upsert_entity(ParticipantId entity, const math::Vec3& position);
    void remove_entity(ParticipantId entity);
    [[nodiscard]] const math::Vec3* entity_position(ParticipantId entity) const;

    void add_viewer(const Viewer& viewer);
    void remove_viewer(net::NodeId node);
    [[nodiscard]] std::size_t viewer_count() const { return viewers_.size(); }

    /// Viewers due to receive an update of `entity` at time `now`, written
    /// into `out` (cleared first) in ascending node order; advances their
    /// per-pair rate clocks. When interest management is disabled every
    /// viewer (except the entity itself) is always due — the E4 baseline.
    void due_targets_into(ParticipantId entity, sim::Time now,
                          std::vector<net::NodeId>& out);

    [[nodiscard]] std::uint64_t suppressed_by_aoi() const { return suppressed_aoi_; }
    [[nodiscard]] std::uint64_t suppressed_by_rate() const { return suppressed_rate_; }

private:
    sync::InterestPolicy policy_;
    bool enabled_;
    std::unordered_map<ParticipantId, math::Vec3> entities_;
    std::vector<Viewer> viewers_;  // sorted by node id
    /// Spatial index over viewer positions, keyed by EntityId{node}.
    sync::InterestGrid viewer_grid_;
    std::vector<EntityId> scratch_;
    /// (viewer node, entity) -> next time an update is due.
    std::unordered_map<std::uint64_t, sim::Time> next_due_;
    std::uint64_t suppressed_aoi_{0};
    std::uint64_t suppressed_rate_{0};

    static std::uint64_t pair_key(net::NodeId viewer, ParticipantId entity) {
        return (static_cast<std::uint64_t>(viewer) << 32) | entity.value();
    }
    [[nodiscard]] std::vector<Viewer>::iterator viewer_at(net::NodeId node);
};

}  // namespace mvc::cloud
