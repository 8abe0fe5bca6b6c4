#include "cloud/fanout.hpp"

#include <algorithm>

namespace mvc::cloud {

namespace {
/// Grid cells sized so an 80 m replication horizon spans a handful of cells
/// per axis: coarse enough that the query walks tens of buckets, fine enough
/// that far viewers are pruned without an exact distance check.
double viewer_cell_size(const sync::InterestPolicy& policy) {
    return std::max(1.0, policy.max_range() / 2.5);
}
}  // namespace

InterestFanout::InterestFanout(sync::InterestPolicy policy, bool enabled)
    : policy_(std::move(policy)),
      enabled_(enabled),
      viewer_grid_(viewer_cell_size(policy_)) {}

void InterestFanout::upsert_entity(ParticipantId entity, const math::Vec3& position) {
    entities_[entity] = position;
}

void InterestFanout::remove_entity(ParticipantId entity) { entities_.erase(entity); }

const math::Vec3* InterestFanout::entity_position(ParticipantId entity) const {
    const auto it = entities_.find(entity);
    return it == entities_.end() ? nullptr : &it->second;
}

std::vector<Viewer>::iterator InterestFanout::viewer_at(net::NodeId node) {
    return std::lower_bound(viewers_.begin(), viewers_.end(), node,
                            [](const Viewer& v, net::NodeId n) { return v.node < n; });
}

void InterestFanout::add_viewer(const Viewer& viewer) {
    auto it = viewer_at(viewer.node);
    if (it != viewers_.end() && it->node == viewer.node)
        *it = viewer;
    else
        viewers_.insert(it, viewer);
    viewer_grid_.update(EntityId{viewer.node}, viewer.position);
}

void InterestFanout::remove_viewer(net::NodeId node) {
    auto it = viewer_at(node);
    if (it != viewers_.end() && it->node == node) viewers_.erase(it);
    viewer_grid_.remove(EntityId{node});
}

void InterestFanout::due_targets_into(ParticipantId entity, sim::Time now,
                                      std::vector<net::NodeId>& out) {
    out.clear();
    const auto ent = entities_.find(entity);
    const math::Vec3 entity_pos =
        ent != entities_.end() ? ent->second : math::Vec3::zero();

    if (!enabled_) {
        for (const Viewer& v : viewers_) {
            if (v.self == entity) continue;  // don't echo a viewer's own avatar
            out.push_back(v.node);
        }
        return;
    }

    // The grid prunes every viewer beyond the replication horizon in one
    // query; candidates come back in ascending node order.
    viewer_grid_.query_radius_into(entity_pos, policy_.max_range(), scratch_);
    suppressed_aoi_ += viewers_.size() - scratch_.size();
    for (const EntityId vid : scratch_) {
        const auto it = viewer_at(net::NodeId{vid.value()});
        if (it == viewers_.end() || it->node != vid.value()) continue;
        const Viewer& v = *it;
        if (v.self == entity) continue;
        const double distance = (v.position - entity_pos).norm();
        const sync::InterestTier* tier = policy_.tier_for(distance);
        if (tier == nullptr) {
            ++suppressed_aoi_;
            continue;
        }
        const std::uint64_t key = pair_key(v.node, entity);
        const auto due = next_due_.find(key);
        if (due != next_due_.end() && now < due->second) {
            ++suppressed_rate_;
            continue;
        }
        next_due_[key] = now + sim::Time::seconds(1.0 / tier->update_rate_hz);
        out.push_back(v.node);
    }
}

}  // namespace mvc::cloud
