#include "core/avatar_pool.hpp"

#include <cstring>

#include "common/bytes.hpp"

namespace mvc::core {

void AvatarPool::reserve(std::size_t capacity) {
    slots_.reserve(capacity);
    slot_of_.reserve(capacity);
    ids_.reserve(capacity);
    positions_.reserve(capacity);
    velocities_.reserve(capacity);
    seqs_.reserve(capacity);
    lods_.reserve(capacity);
    dirty_.reserve(capacity);
}

AvatarHandle AvatarPool::add(EntityId id, const math::Vec3& position,
                             const math::Vec3& velocity) {
    std::uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{});
    }
    const auto dense = static_cast<std::uint32_t>(ids_.size());
    slots_[slot].dense = dense;
    slot_of_.push_back(slot);
    ids_.push_back(id);
    positions_.push_back(position);
    velocities_.push_back(velocity);
    seqs_.push_back(0);
    lods_.push_back(0);
    dirty_.push_back(1);  // new avatars need an initial replication
    return AvatarHandle{slot, slots_[slot].generation};
}

bool AvatarPool::alive(AvatarHandle h) const {
    return h.valid() && h.slot < slots_.size() &&
           slots_[h.slot].generation == h.generation &&
           slots_[h.slot].dense < ids_.size() &&
           slot_of_[slots_[h.slot].dense] == h.slot;
}

bool AvatarPool::remove(AvatarHandle h) {
    if (!alive(h)) return false;
    const std::uint32_t dense = slots_[h.slot].dense;
    const auto last = static_cast<std::uint32_t>(ids_.size() - 1);
    if (dense != last) {
        ids_[dense] = ids_[last];
        positions_[dense] = positions_[last];
        velocities_[dense] = velocities_[last];
        seqs_[dense] = seqs_[last];
        lods_[dense] = lods_[last];
        dirty_[dense] = dirty_[last];
        slot_of_[dense] = slot_of_[last];
        slots_[slot_of_[dense]].dense = dense;
    }
    ids_.pop_back();
    positions_.pop_back();
    velocities_.pop_back();
    seqs_.pop_back();
    lods_.pop_back();
    dirty_.pop_back();
    slot_of_.pop_back();
    ++slots_[h.slot].generation;  // stale out every outstanding handle
    free_.push_back(h.slot);
    return true;
}

std::uint32_t AvatarPool::index_of(AvatarHandle h) const {
    return alive(h) ? slots_[h.slot].dense : kNoIndex;
}

AvatarHandle AvatarPool::handle_at(std::uint32_t index) const {
    const std::uint32_t slot = slot_of_[index];
    return AvatarHandle{slot, slots_[slot].generation};
}

void AvatarPool::clear_dirty() {
    std::memset(dirty_.data(), 0, dirty_.size());
}

AvatarPool::Record AvatarPool::decode_record(const std::uint8_t* data) {
    common::Reader in{std::span{data, kRecordBytes}};
    Record r;
    r.id = EntityId{in.get<std::uint32_t>()};
    r.seq = in.get<std::uint32_t>();
    r.lod = in.get<std::uint8_t>();
    const auto px = in.get<float>(), py = in.get<float>(), pz = in.get<float>();
    const auto vx = in.get<float>(), vy = in.get<float>(), vz = in.get<float>();
    r.position = {px, py, pz};
    r.velocity = {vx, vy, vz};
    return r;
}

}  // namespace mvc::core
