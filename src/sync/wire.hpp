#pragma once
// Wire payloads carried by avatar-flow packets between classroom servers.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/inline_bytes.hpp"
#include "sim/time.hpp"

namespace mvc::sync {

inline constexpr std::string_view kAvatarFlow = "avatar";
/// Flow label for coalesced per-interval avatar batches (see WireBatcher).
inline constexpr std::string_view kAvatarBatchFlow = "avatar.batch";

/// Encoded avatar state carried by one update. 40 bytes inline hold a
/// 33-byte campus pool record and short deltas; full keyframes (93 B) and
/// deltas of fully tracked avatars (57-64 B) spill to the heap (DESIGN §9.4).
using AvatarBytes = common::InlineBytes<40>;

struct AvatarWire {
    ParticipantId participant;
    ClassroomId source_room;
    bool keyframe{false};
    AvatarBytes bytes;
    /// Source capture timestamp (duplicated outside the encoded bytes so
    /// relays can account latency without decoding).
    sim::Time captured_at{};
    /// Failover routing: node ids the cloud should forward this update to on
    /// behalf of the sender because the sender's direct link to them is dead.
    /// Plain node ids (net::NodeId is uint32) to keep this header net-free.
    std::vector<std::uint32_t> relay_to;
    /// Per-sender transmission counter, incremented once per update actually
    /// put on the wire. Dead-reckoning suppression means receiver silence is
    /// ambiguous (suppressed != lost); gaps in this sequence are the honest
    /// per-path loss signal fault::PathHealth consumes. Last member so the
    /// positional aggregate initializers around the codebase keep working.
    std::uint32_t seq{0};

    /// Bytes this update occupies on the wire (encoded state + subheader).
    [[nodiscard]] std::size_t wire_bytes() const { return bytes.size() + 8; }
};

// The aggregator's pending deltas and every batch hold AvatarWires by
// value, so the struct's size is the per-update memory cost at a flush.
static_assert(sizeof(AvatarWire) <= 104, "AvatarWire grew past its per-update budget");

/// Several avatar updates bound for the same destination, shipped as one
/// packet: fan-out senders pay one packet header (and one cross-shard
/// message) per destination per batch interval instead of one per update.
struct AvatarBatchWire {
    std::vector<AvatarWire> updates;

    /// Wire size of the whole batch: per-update bytes plus a 2-byte count.
    [[nodiscard]] std::size_t wire_bytes() const {
        std::size_t total = 2;
        for (const AvatarWire& u : updates) total += u.wire_bytes();
        return total;
    }
};

}  // namespace mvc::sync
