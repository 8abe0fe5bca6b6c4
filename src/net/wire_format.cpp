#include "net/wire_format.hpp"

#include <algorithm>
#include <stdexcept>

namespace mvc::net {

using common::crc32;
using common::put;
using common::put_svarint;
using common::put_varint;
using common::Reader;

namespace {

constexpr std::size_t kCrcBytes = 4;
/// magic, version and priority, then the widest tag, src, dst, packet id,
/// size, sent_at and flow-length varints.
constexpr std::size_t kMaxHeaderBytes = 4 + 1 + 1 + 3 + 5 + 5 + 10 + 10 + 10 + 10;
/// The smallest frame: every varint one byte, empty flow and body.
constexpr std::size_t kMinFrameBytes = 4 + 1 + 1 + 6 + 1 + kCrcBytes;
/// Largest body a UDP datagram can carry, capping the encoder's reservation.
constexpr std::size_t kMaxBodyHint = 65507;

/// Whether the CRC of some shorter prefix sits right after it: the frame was
/// intact and bytes were appended, not corrupted. Runs only on frames that
/// failed the CRC at their end.
bool crc_ends_early(std::span<const std::byte> frame) {
    std::uint32_t crc = crc32(frame.first(kMinFrameBytes - kCrcBytes));
    for (std::size_t end = kMinFrameBytes - kCrcBytes; end + kCrcBytes < frame.size(); ++end) {
        if (Reader{frame.subspan(end, kCrcBytes)}.get<std::uint32_t>() == crc) return true;
        crc = crc32(frame.subspan(end, 1), crc);
    }
    return false;
}

}  // namespace

WireCodecs& WireCodecs::instance() {
    static WireCodecs codecs;
    return codecs;
}

void WireCodecs::add(std::uint16_t tag, detail::PayloadTypeId type, Encode encode,
                     Decode decode) {
    if (tag == kTagEmpty)
        throw std::logic_error("WireCodecs: tag 0 is reserved for empty payloads");
    for (const Entry& e : entries_) {
        if (e.tag == tag && e.type == type) return;  // idempotent re-register
        if (e.tag == tag)
            throw std::logic_error("WireCodecs: tag already bound to another type");
        if (e.type == type)
            throw std::logic_error("WireCodecs: type already bound to another tag");
    }
    entries_.push_back(Entry{tag, type, std::move(encode), std::move(decode)});
}

std::optional<std::uint16_t> WireCodecs::tag_of(const Payload& p) const {
    if (p.empty()) return kTagEmpty;
    const detail::PayloadTypeId id = p.type_id();
    for (const Entry& e : entries_)
        if (e.type == id) return e.tag;
    return std::nullopt;
}

const WireCodecs::Encode* WireCodecs::encoder(std::uint16_t tag) const {
    for (const Entry& e : entries_)
        if (e.tag == tag) return &e.encode;
    return nullptr;
}

const WireCodecs::Decode* WireCodecs::decoder(std::uint16_t tag) const {
    for (const Entry& e : entries_)
        if (e.tag == tag) return &e.decode;
    return nullptr;
}

std::optional<std::vector<std::byte>> encode_frame(const Packet& p, Priority priority) {
    const WireCodecs& codecs = WireCodecs::instance();
    const std::optional<std::uint16_t> tag = codecs.tag_of(p.payload);
    if (!tag) return std::nullopt;

    // The modeled size is the sender's estimate of the body, so one
    // reservation usually holds the whole frame.
    std::vector<std::byte> out;
    out.reserve(kMaxHeaderBytes + p.flow.size() + std::min(p.size_bytes, kMaxBodyHint) +
                kCrcBytes);
    put<std::uint32_t>(out, kWireMagic);
    put<std::uint8_t>(out, kWireVersion);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(priority));
    put_varint(out, *tag);
    put_varint(out, p.src);
    put_varint(out, p.dst);
    put_varint(out, p.id);
    put_varint(out, p.size_bytes);
    put_svarint(out, p.sent_at.nanos());
    common::put_varint_bytes(out, p.flow);
    if (*tag != kTagEmpty) (*codecs.encoder(*tag))(p.payload, out);
    put<std::uint32_t>(out, crc32(out));
    return out;
}

std::string_view frame_defect_name(FrameDefect d) {
    switch (d) {
        case FrameDefect::None: return "none";
        case FrameDefect::BadMagic: return "bad_magic";
        case FrameDefect::BadVersion: return "bad_version";
        case FrameDefect::BadPriority: return "bad_priority";
        case FrameDefect::Truncated: return "truncated";
        case FrameDefect::TrailingGarbage: return "trailing_garbage";
        case FrameDefect::CrcMismatch: return "crc_mismatch";
        case FrameDefect::UnknownTag: return "unknown_tag";
        case FrameDefect::BadPayload: return "bad_payload";
    }
    return "unknown";
}

std::optional<DecodedFrame> decode_frame(std::span<const std::byte> frame) {
    FrameDefect defect = FrameDefect::None;
    return decode_frame(frame, defect);
}

std::optional<DecodedFrame> decode_frame(std::span<const std::byte> frame,
                                         FrameDefect& defect) {
    const auto reject = [&defect](FrameDefect d) {
        defect = d;
        return std::nullopt;
    };
    Reader r{frame};
    const auto magic = r.get<std::uint32_t>();
    if (!r.ok()) return reject(FrameDefect::Truncated);
    if (magic != kWireMagic) return reject(FrameDefect::BadMagic);
    const auto version = r.get<std::uint8_t>();
    if (!r.ok()) return reject(FrameDefect::Truncated);
    if (version != kWireVersion) return reject(FrameDefect::BadVersion);

    // The CRC comes before any varint: a damaged length must read as
    // corruption, not steer the parse.
    if (frame.size() < kMinFrameBytes) return reject(FrameDefect::Truncated);
    const std::span<const std::byte> covered = frame.first(frame.size() - kCrcBytes);
    if (Reader{frame.last(kCrcBytes)}.get<std::uint32_t>() != crc32(covered))
        return reject(crc_ends_early(frame) ? FrameDefect::TrailingGarbage
                                            : FrameDefect::CrcMismatch);

    DecodedFrame out;
    r = Reader{covered.subspan(r.pos())};
    const auto prio = r.get<std::uint8_t>();
    if (prio > static_cast<std::uint8_t>(Priority::Bulk))
        return reject(FrameDefect::BadPriority);
    out.priority = static_cast<Priority>(prio);
    const auto tag = r.varint<std::uint16_t>();
    out.packet.src = r.varint<NodeId>();
    out.packet.dst = r.varint<NodeId>();
    out.packet.id = r.varint();
    out.packet.size_bytes = r.varint<std::size_t>();
    out.packet.sent_at = sim::Time::ns(r.svarint());
    out.packet.flow = r.str(r.varint());
    if (!r.ok()) return reject(FrameDefect::Truncated);
    const auto body = std::as_bytes(r.take(r.remaining()));

    if (tag == kTagEmpty) {
        if (!body.empty()) return reject(FrameDefect::BadPayload);
        defect = FrameDefect::None;
        return out;
    }
    const WireCodecs::Decode* decode = WireCodecs::instance().decoder(tag);
    if (decode == nullptr) return reject(FrameDefect::UnknownTag);
    std::optional<Payload> payload = (*decode)(body);
    if (!payload) return reject(FrameDefect::BadPayload);
    out.packet.payload = std::move(*payload);
    defect = FrameDefect::None;
    return out;
}

bool encode_nested_payload(const Payload& p, std::vector<std::byte>& out) {
    const WireCodecs& codecs = WireCodecs::instance();
    const std::optional<std::uint16_t> tag = codecs.tag_of(p);
    if (!tag) return false;
    put_varint(out, *tag);
    if (*tag != kTagEmpty) (*codecs.encoder(*tag))(p, out);
    return true;
}

std::optional<Payload> decode_nested_payload(Reader& r) {
    const auto tag = r.varint<std::uint16_t>();
    const auto body = std::as_bytes(r.take(r.remaining()));
    if (!r.ok()) return std::nullopt;
    if (tag == kTagEmpty) {
        if (!body.empty()) return std::nullopt;
        return Payload{};
    }
    const WireCodecs::Decode* decode = WireCodecs::instance().decoder(tag);
    if (decode == nullptr) return std::nullopt;
    return (*decode)(body);
}

}  // namespace mvc::net
