#include "core/wire_codecs.hpp"

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/heartbeat.hpp"
#include "net/transport.hpp"
#include "common/bytes.hpp"
#include "net/wire_format.hpp"
#include "recovery/resync.hpp"
#include "sync/clock.hpp"
#include "sync/wire.hpp"

namespace mvc::core {

namespace {

using common::put;
using common::put_svarint;
using common::put_varint;
using common::put_varint_bytes;
using common::Reader;

// Smallest encoding of each repeated element (every varint one byte, no
// bytes), for vetting decoded counts.
constexpr std::size_t kMinAvatarBytes = 7;
constexpr std::size_t kMinResyncEntryBytes = 4;

/// Difference of two times in wrapping arithmetic, so every pair encodes and
/// decodes exactly; add_delta is its inverse.
std::int64_t delta(sim::Time t, sim::Time from) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(t.nanos()) -
                                     static_cast<std::uint64_t>(from.nanos()));
}

sim::Time add_delta(sim::Time from, std::int64_t d) {
    return sim::Time::ns(static_cast<std::int64_t>(static_cast<std::uint64_t>(from.nanos()) +
                                                   static_cast<std::uint64_t>(d)));
}

/// One avatar record; `captured_at` is written as a delta from `prev` (the
/// previous record's in a batch, zero for a lone record).
void put_avatar(std::vector<std::byte>& out, const sync::AvatarWire& w, sim::Time prev) {
    put_varint(out, w.participant.value());
    put_varint(out, w.source_room.value());
    put<std::uint8_t>(out, w.keyframe ? 1 : 0);
    put_varint(out, w.seq);
    put_svarint(out, delta(w.captured_at, prev));
    put_varint_bytes(out, w.bytes);
    put_varint(out, w.relay_to.size());
    for (const std::uint32_t n : w.relay_to) put_varint(out, n);
}

/// A flag byte other than 0 or 1 is malformed (it would re-encode as 1).
bool get_flag(Reader& r) {
    const auto b = r.get<std::uint8_t>();
    if (b > 1) r.fail();
    return b == 1;
}

sync::AvatarWire get_avatar(Reader& r, sim::Time prev) {
    sync::AvatarWire w;
    w.participant = ParticipantId{r.varint<std::uint32_t>()};
    w.source_room = ClassroomId{r.varint<std::uint32_t>()};
    w.keyframe = get_flag(r);
    w.seq = r.varint<std::uint32_t>();
    w.captured_at = add_delta(prev, r.svarint());
    w.bytes = r.varint_bytes();
    w.relay_to.resize(r.count(r.varint(), 1));
    for (std::uint32_t& n : w.relay_to) n = r.varint<std::uint32_t>();
    return w;
}

/// Wrap a field-wise decode with the "consumed the whole body, no overrun"
/// check every codec needs.
template <class T, class GetFn>
net::WireCodecs::Decode whole_body(GetFn get) {
    return [get](std::span<const std::byte> body) -> std::optional<net::Payload> {
        Reader r{body};
        T value = get(r);
        if (!r.ok() || !r.done()) return std::nullopt;
        return net::Payload{std::move(value)};
    };
}

}  // namespace

void register_wire_codecs() {
    net::WireCodecs& codecs = net::WireCodecs::instance();

    codecs.register_codec<sync::AvatarWire>(
        kTagAvatar,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            put_avatar(out, p.get<sync::AvatarWire>(), sim::Time::zero());
        },
        whole_body<sync::AvatarWire>(
            [](Reader& r) { return get_avatar(r, sim::Time::zero()); }));

    codecs.register_codec<sync::AvatarBatchWire>(
        kTagAvatarBatch,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            const auto& batch = p.get<sync::AvatarBatchWire>();
            put_varint(out, batch.updates.size());
            sim::Time prev = sim::Time::zero();
            for (const sync::AvatarWire& u : batch.updates) {
                put_avatar(out, u, prev);
                prev = u.captured_at;
            }
        },
        whole_body<sync::AvatarBatchWire>([](Reader& r) {
            sync::AvatarBatchWire batch;
            const std::size_t count = r.count(r.varint(), kMinAvatarBytes);
            batch.updates.reserve(count);
            sim::Time prev = sim::Time::zero();
            for (std::size_t i = 0; r.ok() && i < count; ++i) {
                batch.updates.push_back(get_avatar(r, prev));
                prev = batch.updates.back().captured_at;
            }
            return batch;
        }));

    codecs.register_codec<fault::HeartbeatWire>(
        kTagHeartbeat,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            put_varint(out, p.get<fault::HeartbeatWire>().seq);
        },
        whole_body<fault::HeartbeatWire>(
            [](Reader& r) { return fault::HeartbeatWire{r.varint<std::uint32_t>()}; }));

    sync::ClockSyncSession::register_wire_codecs(codecs, kTagClockRequest,
                                                 kTagClockReply);

    // Nonces are random 64-bit values: a varint would only lengthen them.
    codecs.register_codec<recovery::ResyncRequest>(
        kTagResyncRequest,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            const auto& req = p.get<recovery::ResyncRequest>();
            put<std::uint64_t>(out, req.nonce);
            put_svarint(out, req.requested_at.nanos());
        },
        whole_body<recovery::ResyncRequest>([](Reader& r) {
            recovery::ResyncRequest req;
            req.nonce = r.get<std::uint64_t>();
            req.requested_at = sim::Time::ns(r.svarint());
            return req;
        }));

    codecs.register_codec<recovery::ResyncSnapshot>(
        kTagResyncSnapshot,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            const auto& snap = p.get<recovery::ResyncSnapshot>();
            put<std::uint64_t>(out, snap.nonce);
            put_svarint(out, snap.served_at.nanos());
            put_varint(out, snap.entries.size());
            for (const recovery::ResyncEntry& e : snap.entries) {
                put_varint(out, e.participant.value());
                put_varint(out, e.source_room.value());
                put_svarint(out, e.captured_at.nanos());
                put_varint_bytes(out, e.bytes);
            }
        },
        whole_body<recovery::ResyncSnapshot>([](Reader& r) {
            recovery::ResyncSnapshot snap;
            snap.nonce = r.get<std::uint64_t>();
            snap.served_at = sim::Time::ns(r.svarint());
            snap.entries.resize(r.count(r.varint(), kMinResyncEntryBytes));
            for (recovery::ResyncEntry& e : snap.entries) {
                e.participant = ParticipantId{r.varint<std::uint32_t>()};
                e.source_room = ClassroomId{r.varint<std::uint32_t>()};
                e.captured_at = sim::Time::ns(r.svarint());
                const auto bytes = r.varint_bytes();
                e.bytes.assign(bytes.begin(), bytes.end());
            }
            return snap;
        }));

    net::ReliableChannel::register_wire_codecs(codecs, kTagArqData);

    codecs.register_codec<std::uint64_t>(
        kTagSeq,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            put_varint(out, p.get<std::uint64_t>());
        },
        whole_body<std::uint64_t>([](Reader& r) { return r.varint(); }));

    codecs.register_codec<std::string>(
        kTagText,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            put_varint_bytes(out, p.get<std::string>());
        },
        whole_body<std::string>([](Reader& r) { return r.str(r.varint()); }));
}

}  // namespace mvc::core
