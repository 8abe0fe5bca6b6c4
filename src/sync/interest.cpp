#include "sync/interest.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace mvc::sync {

InterestGrid::InterestGrid(double cell_size) : cell_size_(cell_size) {
    if (cell_size <= 0.0) throw std::invalid_argument("InterestGrid: cell size > 0");
}

InterestGrid::Cell InterestGrid::cell_of(const math::Vec3& p, double cell_size) {
    return {static_cast<std::int32_t>(std::floor(p.x / cell_size)),
            static_cast<std::int32_t>(std::floor(p.y / cell_size)),
            static_cast<std::int32_t>(std::floor(p.z / cell_size))};
}

void InterestGrid::update(EntityId entity, const math::Vec3& position) {
    const Cell cell = cell_for(position);
    const auto it = index_.find(entity);
    if (it != index_.end()) {
        const std::uint32_t d = it->second;
        positions_[d] = position;
        if (cells_[d] != cell) {
            cells_[d] = cell;
            if (!structural_ && !moved_[d]) {
                moved_[d] = 1;
                pending_.push_back(d);
            }
        }
        return;
    }
    const auto d = static_cast<std::uint32_t>(ids_.size());
    ids_.push_back(entity);
    positions_.push_back(position);
    cells_.push_back(cell);
    moved_.push_back(0);
    index_.emplace(entity, d);
    if (!structural_) {
        moved_[d] = 1;
        pending_.push_back(d);
    }
}

void InterestGrid::remove(EntityId entity) {
    const auto it = index_.find(entity);
    if (it == index_.end()) return;
    const std::uint32_t d = it->second;
    const auto last = static_cast<std::uint32_t>(ids_.size() - 1);
    if (d != last) {
        ids_[d] = ids_[last];
        positions_[d] = positions_[last];
        cells_[d] = cells_[last];
        index_[ids_[d]] = d;
    }
    ids_.pop_back();
    positions_.pop_back();
    cells_.pop_back();
    moved_.pop_back();
    index_.erase(it);
    // The swap re-homed `last` under index `d`, invalidating `order_`.
    structural_ = true;
}

const math::Vec3* InterestGrid::position_of(EntityId entity) const {
    const auto it = index_.find(entity);
    return it == index_.end() ? nullptr : &positions_[it->second];
}

void InterestGrid::ensure_built() const {
    const std::size_t n = ids_.size();
    const bool dirty = structural_ || !pending_.empty() || order_.size() != n;
    if (!dirty) return;
    // Incremental pays m log m + n; past ~25% movers the full n log n sort
    // wins (and a remove invalidates the survivor order outright).
    if (structural_ || order_.size() != n || pending_.size() * 4 > n) {
        order_.resize(n);
        std::iota(order_.begin(), order_.end(), 0u);
        std::sort(order_.begin(), order_.end(),
                  [this](std::uint32_t a, std::uint32_t b) { return order_before(a, b); });
        std::fill(moved_.begin(), moved_.end(), 0);
        pending_.clear();
        structural_ = false;
        ++full_rebuilds_;
    } else {
        survivors_.clear();
        for (const std::uint32_t d : order_)
            if (!moved_[d]) survivors_.push_back(d);
        std::sort(pending_.begin(), pending_.end(),
                  [this](std::uint32_t a, std::uint32_t b) { return order_before(a, b); });
        order_.resize(n);
        std::merge(survivors_.begin(), survivors_.end(), pending_.begin(), pending_.end(),
                   order_.begin(),
                   [this](std::uint32_t a, std::uint32_t b) { return order_before(a, b); });
        for (const std::uint32_t d : pending_) moved_[d] = 0;
        pending_.clear();
        ++incremental_rebuilds_;
    }
    buckets_.clear();
    for (std::uint32_t i = 0; i < n;) {
        const Cell cell = cells_[order_[i]];
        std::uint32_t j = i + 1;
        while (j < n && cells_[order_[j]] == cell) ++j;
        buckets_.push_back(Bucket{cell, i, j});
        i = j;
    }
}

void InterestGrid::query_radius_into(const math::Vec3& center, double radius,
                                     std::vector<EntityId>& out) const {
    ensure_built();
    out.clear();
    const double r2 = radius * radius;
    const Cell lo = cell_for(center - math::Vec3{radius, radius, radius});
    const Cell hi = cell_for(center + math::Vec3{radius, radius, radius});
    // Candidate cells are visited in ascending (x,y,z) order — the same
    // order buckets_ is sorted in — so one monotone cursor serves every
    // lower_bound instead of restarting the binary search from scratch.
    auto cursor = buckets_.begin();
    for (std::int32_t x = lo.x; x <= hi.x; ++x) {
        for (std::int32_t y = lo.y; y <= hi.y; ++y) {
            cursor = std::lower_bound(
                cursor, buckets_.end(), Cell{x, y, lo.z},
                [](const Bucket& b, const Cell& c) { return b.cell < c; });
            for (; cursor != buckets_.end() && cursor->cell.x == x &&
                   cursor->cell.y == y && cursor->cell.z <= hi.z;
                 ++cursor) {
                for (std::uint32_t i = cursor->begin; i < cursor->end; ++i) {
                    const std::uint32_t d = order_[i];
                    if ((positions_[d] - center).norm_sq() <= r2) out.push_back(ids_[d]);
                }
            }
        }
    }
    std::sort(out.begin(), out.end());
}

void InterestGrid::query_nearest_into(const math::Vec3& center, double radius,
                                      std::size_t max_results,
                                      std::vector<EntityId>& out) const {
    ensure_built();
    out.clear();
    nearest_scratch_.clear();
    const double r2 = radius * radius;
    const Cell lo = cell_for(center - math::Vec3{radius, radius, radius});
    const Cell hi = cell_for(center + math::Vec3{radius, radius, radius});
    auto cursor = buckets_.begin();
    for (std::int32_t x = lo.x; x <= hi.x; ++x) {
        for (std::int32_t y = lo.y; y <= hi.y; ++y) {
            cursor = std::lower_bound(
                cursor, buckets_.end(), Cell{x, y, lo.z},
                [](const Bucket& b, const Cell& c) { return b.cell < c; });
            for (; cursor != buckets_.end() && cursor->cell.x == x &&
                   cursor->cell.y == y && cursor->cell.z <= hi.z;
                 ++cursor) {
                for (std::uint32_t i = cursor->begin; i < cursor->end; ++i) {
                    const std::uint32_t d = order_[i];
                    const double d2 = (positions_[d] - center).norm_sq();
                    if (d2 <= r2) nearest_scratch_.emplace_back(d2, ids_[d]);
                }
            }
        }
    }
    std::sort(nearest_scratch_.begin(), nearest_scratch_.end());
    if (nearest_scratch_.size() > max_results) nearest_scratch_.resize(max_results);
    for (const auto& [d2, id] : nearest_scratch_) out.push_back(id);
}

InterestPolicy::InterestPolicy() {
    tiers_ = {
        {5.0, 60.0, avatar::LodLevel::High},
        {12.0, 30.0, avatar::LodLevel::Medium},
        {30.0, 15.0, avatar::LodLevel::Low},
        {80.0, 5.0, avatar::LodLevel::Billboard},
    };
}

InterestPolicy::InterestPolicy(const std::vector<InterestTier>& tiers) {
    if (tiers.empty()) throw std::invalid_argument("InterestPolicy: need at least one tier");
    tiers_.assign(tiers.data(), tiers.data() + tiers.size());  // > kMaxTiers throws
    for (std::size_t i = 1; i < tiers_.size(); ++i) {
        if (tiers_[i].max_distance_m <= tiers_[i - 1].max_distance_m)
            throw std::invalid_argument("InterestPolicy: tiers must be distance-ascending");
    }
}

const InterestTier* InterestPolicy::tier_for(double distance_m) const {
    for (const auto& t : tiers_) {
        if (distance_m <= t.max_distance_m) return &t;
    }
    return nullptr;
}

int InterestPolicy::tier_index_for(double distance_m) const {
    for (std::size_t i = 0; i < tiers_.size(); ++i) {
        if (distance_m <= tiers_[i].max_distance_m) return static_cast<int>(i);
    }
    return -1;
}

}  // namespace mvc::sync
