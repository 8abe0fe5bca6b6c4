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
using common::put_bytes;
using common::Reader;

// Smallest encoding of each repeated element, for vetting decoded counts.
constexpr std::size_t kMinAvatarBytes = 4 + 4 + 1 + 4 + 8 + 4 + 4;
constexpr std::size_t kMinResyncEntryBytes = 4 + 4 + 8 + 4;

void put_avatar(std::vector<std::byte>& out, const sync::AvatarWire& w) {
    put<std::uint32_t>(out, w.participant.value());
    put<std::uint32_t>(out, w.source_room.value());
    put<std::uint8_t>(out, w.keyframe ? 1 : 0);
    put<std::uint32_t>(out, w.seq);
    put<std::int64_t>(out, w.captured_at.nanos());
    put_bytes(out, w.bytes);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(w.relay_to.size()));
    for (const std::uint32_t n : w.relay_to) put<std::uint32_t>(out, n);
}

sync::AvatarWire get_avatar(Reader& r) {
    sync::AvatarWire w;
    w.participant = ParticipantId{r.get<std::uint32_t>()};
    w.source_room = ClassroomId{r.get<std::uint32_t>()};
    w.keyframe = r.get<std::uint8_t>() != 0;
    w.seq = r.get<std::uint32_t>();
    w.captured_at = sim::Time::ns(r.get<std::int64_t>());
    w.bytes = r.bytes();
    w.relay_to.resize(r.count(r.get<std::uint32_t>(), sizeof(std::uint32_t)));
    for (std::uint32_t& n : w.relay_to) n = r.get<std::uint32_t>();
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
            put_avatar(out, p.get<sync::AvatarWire>());
        },
        whole_body<sync::AvatarWire>([](Reader& r) { return get_avatar(r); }));

    codecs.register_codec<sync::AvatarBatchWire>(
        kTagAvatarBatch,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            const auto& batch = p.get<sync::AvatarBatchWire>();
            put<std::uint32_t>(out, static_cast<std::uint32_t>(batch.updates.size()));
            for (const sync::AvatarWire& u : batch.updates) put_avatar(out, u);
        },
        whole_body<sync::AvatarBatchWire>([](Reader& r) {
            sync::AvatarBatchWire batch;
            const std::size_t count = r.count(r.get<std::uint32_t>(), kMinAvatarBytes);
            batch.updates.reserve(count);
            for (std::size_t i = 0; r.ok() && i < count; ++i)
                batch.updates.push_back(get_avatar(r));
            return batch;
        }));

    codecs.register_codec<fault::HeartbeatWire>(
        kTagHeartbeat,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            put<std::uint64_t>(out, p.get<fault::HeartbeatWire>().seq);
        },
        whole_body<fault::HeartbeatWire>([](Reader& r) {
            return fault::HeartbeatWire{r.get<std::uint64_t>()};
        }));

    sync::ClockSyncSession::register_wire_codecs(codecs, kTagClockRequest,
                                                 kTagClockReply);

    codecs.register_codec<recovery::ResyncRequest>(
        kTagResyncRequest,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            const auto& req = p.get<recovery::ResyncRequest>();
            put<std::uint64_t>(out, req.nonce);
            put<std::int64_t>(out, req.requested_at.nanos());
        },
        whole_body<recovery::ResyncRequest>([](Reader& r) {
            recovery::ResyncRequest req;
            req.nonce = r.get<std::uint64_t>();
            req.requested_at = sim::Time::ns(r.get<std::int64_t>());
            return req;
        }));

    codecs.register_codec<recovery::ResyncSnapshot>(
        kTagResyncSnapshot,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            const auto& snap = p.get<recovery::ResyncSnapshot>();
            put<std::uint64_t>(out, snap.nonce);
            put<std::int64_t>(out, snap.served_at.nanos());
            put<std::uint32_t>(out, static_cast<std::uint32_t>(snap.entries.size()));
            for (const recovery::ResyncEntry& e : snap.entries) {
                put<std::uint32_t>(out, e.participant.value());
                put<std::uint32_t>(out, e.source_room.value());
                put<std::int64_t>(out, e.captured_at.nanos());
                put_bytes(out, e.bytes);
            }
        },
        whole_body<recovery::ResyncSnapshot>([](Reader& r) {
            recovery::ResyncSnapshot snap;
            snap.nonce = r.get<std::uint64_t>();
            snap.served_at = sim::Time::ns(r.get<std::int64_t>());
            snap.entries.resize(r.count(r.get<std::uint32_t>(), kMinResyncEntryBytes));
            for (recovery::ResyncEntry& e : snap.entries) {
                e.participant = ParticipantId{r.get<std::uint32_t>()};
                e.source_room = ClassroomId{r.get<std::uint32_t>()};
                e.captured_at = sim::Time::ns(r.get<std::int64_t>());
                const auto bytes = r.bytes();
                e.bytes.assign(bytes.begin(), bytes.end());
            }
            return snap;
        }));

    net::ReliableChannel::register_wire_codecs(codecs, kTagArqData);

    codecs.register_codec<std::uint64_t>(
        kTagSeq,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            put<std::uint64_t>(out, p.get<std::uint64_t>());
        },
        whole_body<std::uint64_t>([](Reader& r) { return r.get<std::uint64_t>(); }));

    codecs.register_codec<std::string>(
        kTagText,
        [](const net::Payload& p, std::vector<std::byte>& out) {
            put_bytes(out, p.get<std::string>());
        },
        whole_body<std::string>([](Reader& r) { return r.str(r.get<std::uint32_t>()); }));
}

}  // namespace mvc::core
