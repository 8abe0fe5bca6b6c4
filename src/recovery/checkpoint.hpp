#pragma once
// Checkpointed classroom state: everything a server must persist to rejoin
// a running class after a process crash without waiting for the replication
// layer to resend it — seat occupancy and reservations (edge/seats), session
// membership and contributed content (session/), and the reference state of
// every remote avatar replica plus its exact retarget binding
// (sync/replication + edge/retarget). Local participants are deliberately
// NOT checkpointed: they are physically present and re-sensed on restart;
// what a crash loses is the *replicated* view of everyone else.
//
// The wire format is versioned, little-endian (common/bytes.hpp), and
// carries a trailing common::crc32 over header+body so torn or bit-flipped
// checkpoints are rejected (decode throws CheckpointError) instead of
// silently restoring garbage.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "math/pose.hpp"
#include "sim/time.hpp"

namespace mvc::recovery {

/// One occupied seat in the room's SeatMap.
struct SeatRecord {
    std::uint32_t seat_index{0};
    ParticipantId occupant;

    friend bool operator==(const SeatRecord&, const SeatRecord&) = default;
};

/// A reserved (held-open) seat, e.g. for a guest speaker.
struct ReservationRecord {
    ParticipantId participant;
    std::uint32_t seat_index{0};

    friend bool operator==(const ReservationRecord&, const ReservationRecord&) = default;
};

/// One enrolled participant (session roster). Comfort profiles are omitted:
/// they are renegotiated by the client device on reconnect.
struct MemberRecord {
    ParticipantId id;
    std::string name;
    std::uint8_t role{0};
    std::uint8_t device{0};
    bool physical{false};
    ClassroomId room;               // valid when physical
    std::uint32_t seat_index{0};    // valid when physical
    std::uint8_t region{0};         // valid when remote

    friend bool operator==(const MemberRecord&, const MemberRecord&) = default;
};

/// One admitted item of the append-only content ledger.
struct ContentRecord {
    ContentId id;
    ParticipantId creator;
    std::uint8_t kind{0};
    std::uint8_t scope{0};
    std::string title;
    std::uint64_t size_bytes{0};
    std::int64_t created_at_ns{0};
    bool anchored_to_person{false};
    ParticipantId anchor_person;
    bool anchor_consent{false};

    friend bool operator==(const ContentRecord&, const ContentRecord&) = default;
};

/// The replicated view of one remote avatar: the last full reference state
/// (re-ingested as a keyframe on restore so delta decoding resumes) plus the
/// seat assignment and the exact retarget transform bound at anchor time.
struct ReplicaRecord {
    ParticipantId participant;
    ClassroomId source_room;
    bool anchored{false};
    bool has_seat{false};
    std::uint32_t seat_index{0};
    math::Pose source_anchor;   // retarget binding (valid when anchored)
    math::Pose seat_pose;
    std::int64_t captured_at_ns{0};
    std::vector<std::uint8_t> reference;  // encoded full avatar state

    friend bool operator==(const ReplicaRecord&, const ReplicaRecord&) = default;
};

struct ClassroomCheckpoint {
    std::string node;           // owning server's node name
    std::uint64_t sequence{0};  // monotonic per owner
    std::int64_t taken_at_ns{0};
    std::vector<SeatRecord> seats;
    std::vector<ReservationRecord> reservations;
    std::vector<MemberRecord> members;
    std::vector<ContentRecord> content;
    std::vector<ReplicaRecord> replicas;

    [[nodiscard]] sim::Time taken_at() const { return sim::Time::ns(taken_at_ns); }

    friend bool operator==(const ClassroomCheckpoint&, const ClassroomCheckpoint&) = default;
};

/// Thrown by decode_checkpoint on any corruption: bad magic, unknown
/// version, checksum mismatch, truncation, or trailing bytes.
class CheckpointError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kCheckpointMagic = 0x4D56434B;  // "MVCK"
inline constexpr std::uint16_t kCheckpointVersion = 1;

[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(const ClassroomCheckpoint& cp);
[[nodiscard]] ClassroomCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes);

}  // namespace mvc::recovery
