#include "recovery/checkpoint.hpp"

#include "common/bytes.hpp"

namespace mvc::recovery {

namespace {

using Bytes = std::vector<std::uint8_t>;
using common::put;
using common::Reader;

// Smallest encoding of each repeated record, for vetting decoded counts.
constexpr std::size_t kPoseBytes = 7 * 8;
constexpr std::size_t kSeatBytes = 4 + 4;
constexpr std::size_t kReservationBytes = 4 + 4;
constexpr std::size_t kMinMemberBytes = 4 + 4 + 1 + 1 + 1 + 4 + 4 + 1;
constexpr std::size_t kMinContentBytes = 4 + 4 + 1 + 1 + 4 + 8 + 8 + 1 + 4 + 1;
constexpr std::size_t kMinReplicaBytes = 4 + 4 + 1 + 1 + 4 + 2 * kPoseBytes + 8 + 4;

void put_pose(Bytes& w, const math::Pose& p) {
    for (const double v : {p.position.x, p.position.y, p.position.z, p.orientation.w,
                           p.orientation.x, p.orientation.y, p.orientation.z})
        put(w, v);
}

math::Pose get_pose(Reader& r) {
    math::Pose p;
    for (double* v : {&p.position.x, &p.position.y, &p.position.z, &p.orientation.w,
                      &p.orientation.x, &p.orientation.y, &p.orientation.z})
        *v = r.get<double>();
    return p;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const ClassroomCheckpoint& cp) {
    using common::put_bytes;
    Bytes w;
    put(w, kCheckpointMagic);
    put(w, kCheckpointVersion);
    put_bytes(w, cp.node);
    put(w, cp.sequence);
    put(w, cp.taken_at_ns);

    put(w, static_cast<std::uint32_t>(cp.seats.size()));
    for (const auto& s : cp.seats) {
        put(w, s.seat_index);
        put(w, s.occupant.value());
    }
    put(w, static_cast<std::uint32_t>(cp.reservations.size()));
    for (const auto& r : cp.reservations) {
        put(w, r.participant.value());
        put(w, r.seat_index);
    }
    put(w, static_cast<std::uint32_t>(cp.members.size()));
    for (const auto& m : cp.members) {
        put(w, m.id.value());
        put_bytes(w, m.name);
        put(w, m.role);
        put(w, m.device);
        put<std::uint8_t>(w, m.physical ? 1 : 0);
        put(w, m.room.value());
        put(w, m.seat_index);
        put(w, m.region);
    }
    put(w, static_cast<std::uint32_t>(cp.content.size()));
    for (const auto& c : cp.content) {
        put(w, c.id.value());
        put(w, c.creator.value());
        put(w, c.kind);
        put(w, c.scope);
        put_bytes(w, c.title);
        put(w, c.size_bytes);
        put(w, c.created_at_ns);
        put<std::uint8_t>(w, c.anchored_to_person ? 1 : 0);
        put(w, c.anchor_person.value());
        put<std::uint8_t>(w, c.anchor_consent ? 1 : 0);
    }
    put(w, static_cast<std::uint32_t>(cp.replicas.size()));
    for (const auto& rr : cp.replicas) {
        put(w, rr.participant.value());
        put(w, rr.source_room.value());
        put<std::uint8_t>(w, rr.anchored ? 1 : 0);
        put<std::uint8_t>(w, rr.has_seat ? 1 : 0);
        put(w, rr.seat_index);
        put_pose(w, rr.source_anchor);
        put_pose(w, rr.seat_pose);
        put(w, rr.captured_at_ns);
        put_bytes(w, rr.reference);
    }
    put(w, common::crc32(w));
    return w;
}

ClassroomCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
    if (bytes.size() < 10) throw CheckpointError("checkpoint: too short");
    const std::span<const std::uint8_t> body = bytes.first(bytes.size() - 4);
    if (Reader{bytes.last(4)}.get<std::uint32_t>() != common::crc32(body))
        throw CheckpointError("checkpoint: checksum mismatch");

    Reader r{body};
    if (r.get<std::uint32_t>() != kCheckpointMagic)
        throw CheckpointError("checkpoint: bad magic");
    if (r.get<std::uint16_t>() != kCheckpointVersion)
        throw CheckpointError("checkpoint: unknown version");

    ClassroomCheckpoint cp;
    cp.node = r.str(r.get<std::uint32_t>());
    cp.sequence = r.get<std::uint64_t>();
    cp.taken_at_ns = r.get<std::int64_t>();

    cp.seats.resize(r.count(r.get<std::uint32_t>(), kSeatBytes));
    for (SeatRecord& s : cp.seats) {
        s.seat_index = r.get<std::uint32_t>();
        s.occupant = ParticipantId{r.get<std::uint32_t>()};
    }
    cp.reservations.resize(r.count(r.get<std::uint32_t>(), kReservationBytes));
    for (ReservationRecord& res : cp.reservations) {
        res.participant = ParticipantId{r.get<std::uint32_t>()};
        res.seat_index = r.get<std::uint32_t>();
    }
    cp.members.resize(r.count(r.get<std::uint32_t>(), kMinMemberBytes));
    for (MemberRecord& m : cp.members) {
        m.id = ParticipantId{r.get<std::uint32_t>()};
        m.name = r.str(r.get<std::uint32_t>());
        m.role = r.get<std::uint8_t>();
        m.device = r.get<std::uint8_t>();
        m.physical = r.get<std::uint8_t>() != 0;
        m.room = ClassroomId{r.get<std::uint32_t>()};
        m.seat_index = r.get<std::uint32_t>();
        m.region = r.get<std::uint8_t>();
    }
    cp.content.resize(r.count(r.get<std::uint32_t>(), kMinContentBytes));
    for (ContentRecord& c : cp.content) {
        c.id = ContentId{r.get<std::uint32_t>()};
        c.creator = ParticipantId{r.get<std::uint32_t>()};
        c.kind = r.get<std::uint8_t>();
        c.scope = r.get<std::uint8_t>();
        c.title = r.str(r.get<std::uint32_t>());
        c.size_bytes = r.get<std::uint64_t>();
        c.created_at_ns = r.get<std::int64_t>();
        c.anchored_to_person = r.get<std::uint8_t>() != 0;
        c.anchor_person = ParticipantId{r.get<std::uint32_t>()};
        c.anchor_consent = r.get<std::uint8_t>() != 0;
    }
    cp.replicas.resize(r.count(r.get<std::uint32_t>(), kMinReplicaBytes));
    for (ReplicaRecord& rr : cp.replicas) {
        rr.participant = ParticipantId{r.get<std::uint32_t>()};
        rr.source_room = ClassroomId{r.get<std::uint32_t>()};
        rr.anchored = r.get<std::uint8_t>() != 0;
        rr.has_seat = r.get<std::uint8_t>() != 0;
        rr.seat_index = r.get<std::uint32_t>();
        rr.source_anchor = get_pose(r);
        rr.seat_pose = get_pose(r);
        rr.captured_at_ns = r.get<std::int64_t>();
        const auto reference = r.bytes();
        rr.reference.assign(reference.begin(), reference.end());
    }
    if (!r.ok()) throw CheckpointError("checkpoint: truncated body");
    if (!r.done()) throw CheckpointError("checkpoint: trailing bytes");
    return cp;
}

}  // namespace mvc::recovery
