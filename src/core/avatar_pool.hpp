#pragma once
// Dense structure-of-arrays avatar storage. A shard's per-tick work over
// its avatars — integrate motion, test dirty thresholds, re-bucket the
// interest grid — should be a cache-linear sweep over parallel arrays, not
// a pointer chase through per-object replica graphs. The pool keeps one
// column per field (position, velocity, wire seq, LOD, dirty bit) indexed
// by a dense row; rows are kept packed by swap-remove, and generation-
// stamped handles stay stable across packing and free-list reuse.
//
// Contract: column spans are index-aligned views over the same rows;
// add/remove invalidates spans and dense indices (handles stay valid).

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "math/vec3.hpp"

namespace mvc::core {

/// Stable reference to a pooled avatar: an index into the slot table plus
/// the slot's generation at acquisition. Reusing a freed slot bumps the
/// generation, so handles to removed avatars go stale instead of aliasing
/// the new occupant.
struct AvatarHandle {
    std::uint32_t slot{UINT32_MAX};
    std::uint32_t generation{0};

    [[nodiscard]] constexpr bool valid() const { return slot != UINT32_MAX; }
    friend constexpr bool operator==(const AvatarHandle&, const AvatarHandle&) = default;
};

class AvatarPool {
public:
    static constexpr std::uint32_t kNoIndex = UINT32_MAX;

    /// Fixed-layout wire record for one avatar row (see encode_record).
    struct Record {
        EntityId id;
        math::Vec3 position;
        math::Vec3 velocity;
        std::uint32_t seq{0};
        std::uint8_t lod{0};
    };
    /// id u32 | seq u32 | lod u8 | position 3xf32 | velocity 3xf32.
    static constexpr std::size_t kRecordBytes = 4 + 4 + 1 + 12 + 12;

    AvatarPool() = default;
    void reserve(std::size_t capacity);

    AvatarHandle add(EntityId id, const math::Vec3& position,
                     const math::Vec3& velocity = math::Vec3::zero());
    /// Removes the avatar behind `h`; false if the handle is stale. The
    /// last row is swapped into the vacated row to keep columns packed.
    bool remove(AvatarHandle h);
    [[nodiscard]] bool alive(AvatarHandle h) const;
    [[nodiscard]] std::size_t size() const { return ids_.size(); }
    [[nodiscard]] std::size_t free_slots() const { return free_.size(); }

    /// Dense row of a live handle, or kNoIndex when stale.
    [[nodiscard]] std::uint32_t index_of(AvatarHandle h) const;
    /// Handle of the avatar currently stored in dense row `index`.
    [[nodiscard]] AvatarHandle handle_at(std::uint32_t index) const;

    // Index-aligned SoA columns. Mutable spans are the per-tick sweep
    // surface; rows are added/removed only through add()/remove().
    [[nodiscard]] std::span<const EntityId> ids() const { return ids_; }
    [[nodiscard]] std::span<math::Vec3> positions() { return positions_; }
    [[nodiscard]] std::span<const math::Vec3> positions() const { return positions_; }
    [[nodiscard]] std::span<math::Vec3> velocities() { return velocities_; }
    [[nodiscard]] std::span<const math::Vec3> velocities() const { return velocities_; }
    [[nodiscard]] std::span<std::uint32_t> seqs() { return seqs_; }
    [[nodiscard]] std::span<const std::uint32_t> seqs() const { return seqs_; }
    [[nodiscard]] std::span<std::uint8_t> lods() { return lods_; }
    [[nodiscard]] std::span<const std::uint8_t> lods() const { return lods_; }
    [[nodiscard]] std::span<std::uint8_t> dirty() { return dirty_; }
    [[nodiscard]] std::span<const std::uint8_t> dirty() const { return dirty_; }

    /// Reset every dirty bit after an egress flush.
    void clear_dirty();

    /// Append row `index` to `out` as a kRecordBytes fixed-layout record
    /// (little-endian scalars, f32 vectors). `out` is any byte buffer: a
    /// vector, or the inline bytes of the wire value that will carry it.
    template <common::ByteBuffer Out>
    void encode_record(std::uint32_t index, Out& out) const {
        using common::put;
        put<std::uint32_t>(out, ids_[index].value());
        put<std::uint32_t>(out, seqs_[index]);
        put<std::uint8_t>(out, lods_[index]);
        const math::Vec3& p = positions_[index];
        put<float>(out, static_cast<float>(p.x));
        put<float>(out, static_cast<float>(p.y));
        put<float>(out, static_cast<float>(p.z));
        const math::Vec3& v = velocities_[index];
        put<float>(out, static_cast<float>(v.x));
        put<float>(out, static_cast<float>(v.y));
        put<float>(out, static_cast<float>(v.z));
    }
    /// Decode one record; `data` must hold at least kRecordBytes.
    [[nodiscard]] static Record decode_record(const std::uint8_t* data);

private:
    struct Slot {
        std::uint32_t dense{0};
        std::uint32_t generation{0};
    };

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;     // reusable slot indices (LIFO)
    std::vector<std::uint32_t> slot_of_;  // dense row -> owning slot

    std::vector<EntityId> ids_;
    std::vector<math::Vec3> positions_;
    std::vector<math::Vec3> velocities_;
    std::vector<std::uint32_t> seqs_;
    std::vector<std::uint8_t> lods_;
    std::vector<std::uint8_t> dirty_;
};

}  // namespace mvc::core
