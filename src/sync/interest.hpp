#pragma once
// Interest management (area-of-interest filtering). With thousands of
// entities in one digital space, broadcasting everything to everyone is
// quadratic; a uniform spatial grid answers "which entities matter to this
// viewer" queries, and the tiered policy maps distance to update rate and
// LOD so far-away avatars cost almost nothing.
//
// Storage is a dense structure-of-arrays: ids, positions and cell coords
// live in parallel vectors, and cell membership is a single flat array of
// dense indices sorted by (cell, id) with a bucket directory of contiguous
// runs on top. Moves between cells are queued and folded in lazily — an
// O(m log m) sort of the movers merged against the still-sorted survivors —
// so a tick that moves a few percent of entities never pays a full
// re-sort. Queries binary-search the bucket directory and write into
// caller-provided buffers: zero allocations in steady state (E17 budget).

#include <compare>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "avatar/lod.hpp"
#include "common/ids.hpp"
#include "math/vec3.hpp"

namespace mvc::sync {

class InterestGrid {
public:
    explicit InterestGrid(double cell_size = 4.0);

    void update(EntityId entity, const math::Vec3& position);
    void remove(EntityId entity);
    [[nodiscard]] std::size_t size() const { return ids_.size(); }
    [[nodiscard]] bool contains(EntityId entity) const { return index_.contains(entity); }

    /// All entities within `radius` of `center` (exact distance check after
    /// the grid pre-filter), sorted by id for determinism, written into
    /// `out` (cleared first). Allocation-free once `out` has capacity.
    void query_radius_into(const math::Vec3& center, double radius,
                           std::vector<EntityId>& out) const;

    /// Entities within radius, nearest first (id tiebreak), capped at
    /// `max_results`, written into `out` (cleared first).
    void query_nearest_into(const math::Vec3& center, double radius,
                            std::size_t max_results,
                            std::vector<EntityId>& out) const;

    [[nodiscard]] std::vector<EntityId> query_radius(const math::Vec3& center,
                                                     double radius) const;
    [[nodiscard]] std::vector<EntityId> query_nearest(const math::Vec3& center,
                                                      double radius,
                                                      std::size_t max_results) const;

    /// Pointer into the dense position array; invalidated by update/remove.
    [[nodiscard]] const math::Vec3* position_of(EntityId entity) const;

    /// Fold queued cell moves into the sorted order now (queries do this
    /// lazily; per-tick callers commit once after their update sweep).
    void rebuild() { ensure_built(); }
    [[nodiscard]] std::uint64_t full_rebuilds() const { return full_rebuilds_; }
    [[nodiscard]] std::uint64_t incremental_rebuilds() const { return incremental_rebuilds_; }

    /// Cell-coordinate hash, exposed for the distribution regression test.
    /// Coordinates are reinterpreted as uint32 before the prime multiplies:
    /// casting int32 -> size_t directly sign-extends negative coordinates to
    /// 0xFFFFFFFFxxxxxxxx, and after the multiply every negative-coordinate
    /// cell shares nearly identical high bits, clustering whole quadrants of
    /// the room into a handful of buckets. A 64-bit avalanche finalizer
    /// (splitmix64 tail) then spreads the combined value across all bits,
    /// since unordered_map bucket selection uses the low bits. The flat grid
    /// orders cells instead of hashing them, but spatially keyed hash tables
    /// elsewhere (and the regression test) still rely on this spread.
    [[nodiscard]] static std::size_t cell_hash(std::int32_t x, std::int32_t y,
                                               std::int32_t z) {
        std::uint64_t h = static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) *
                              0x9E3779B185EBCA87ull ^
                          static_cast<std::uint64_t>(static_cast<std::uint32_t>(y)) *
                              0xC2B2AE3D27D4EB4Full ^
                          static_cast<std::uint64_t>(static_cast<std::uint32_t>(z)) *
                              0x165667B19E3779F9ull;
        h ^= h >> 30;
        h *= 0xBF58476D1CE4E5B9ull;
        h ^= h >> 27;
        h *= 0x94D049BB133111EBull;
        h ^= h >> 31;
        return static_cast<std::size_t>(h);
    }

    struct Cell {
        std::int32_t x, y, z;
        friend auto operator<=>(const Cell&, const Cell&) = default;
    };

    /// The cell holding `p` on a grid of `cell_size` cubes (floor division,
    /// so negative coordinates round toward -inf). One definition for the
    /// grid and the egress aggregator, which must agree on cell borders.
    [[nodiscard]] static Cell cell_of(const math::Vec3& p, double cell_size);
    [[nodiscard]] Cell cell_for(const math::Vec3& p) const { return cell_of(p, cell_size_); }
    [[nodiscard]] double cell_size() const { return cell_size_; }

private:
    /// Contiguous run of `order_` holding one cell's entities (id-sorted).
    struct Bucket {
        Cell cell;
        std::uint32_t begin, end;
    };

    double cell_size_;
    // Dense SoA storage; `index_` maps an entity id to its dense slot.
    std::vector<EntityId> ids_;
    std::vector<math::Vec3> positions_;
    std::vector<Cell> cells_;
    std::unordered_map<EntityId, std::uint32_t> index_;

    // Sorted view, rebuilt lazily. `order_` holds dense indices sorted by
    // (cell, id); `buckets_` is the per-cell directory over it. `pending_`
    // lists indices whose cell changed since the last build (`moved_` flags
    // dedupe it); a remove swaps dense slots, so it forces a full re-sort.
    mutable std::vector<std::uint32_t> order_;
    mutable std::vector<Bucket> buckets_;
    mutable std::vector<std::uint32_t> pending_;
    mutable std::vector<std::uint8_t> moved_;
    mutable std::vector<std::uint32_t> survivors_;  // merge scratch
    mutable std::vector<std::pair<double, EntityId>> nearest_scratch_;
    mutable bool structural_{false};
    mutable std::uint64_t full_rebuilds_{0};
    mutable std::uint64_t incremental_rebuilds_{0};

    void ensure_built() const;
    [[nodiscard]] bool order_before(std::uint32_t a, std::uint32_t b) const {
        if (cells_[a] != cells_[b]) return cells_[a] < cells_[b];
        return ids_[a] < ids_[b];
    }
};

/// Distance-tiered replication policy: how often and at which LOD a viewer
/// should receive a given entity.
struct InterestTier {
    double max_distance_m;
    double update_rate_hz;
    avatar::LodLevel lod;
};

class InterestPolicy {
public:
    /// Default tiers follow the LOD ladder's distance bands.
    InterestPolicy();
    explicit InterestPolicy(std::vector<InterestTier> tiers);

    /// Tier for a viewer-to-entity distance; entities beyond the last tier's
    /// range are not replicated at all (nullptr).
    [[nodiscard]] const InterestTier* tier_for(double distance_m) const;
    /// Index of the tier for a distance, or -1 beyond the last tier.
    [[nodiscard]] int tier_index_for(double distance_m) const;
    [[nodiscard]] const std::vector<InterestTier>& tiers() const { return tiers_; }
    /// Replication horizon: the last tier's max distance.
    [[nodiscard]] double max_range() const { return tiers_.back().max_distance_m; }

private:
    std::vector<InterestTier> tiers_;
};

}  // namespace mvc::sync
