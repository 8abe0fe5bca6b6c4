#include "net/wire_format.hpp"

#include <stdexcept>

namespace mvc::net {

using common::crc32;
using common::put;
using common::Reader;

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

    std::vector<std::byte> out;
    out.reserve(64 + p.flow.size());
    put<std::uint32_t>(out, kWireMagic);
    put<std::uint8_t>(out, kWireVersion);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(priority));
    put<std::uint16_t>(out, *tag);
    put<std::uint32_t>(out, p.src);
    put<std::uint32_t>(out, p.dst);
    put<std::uint64_t>(out, p.id);
    put<std::uint64_t>(out, static_cast<std::uint64_t>(p.size_bytes));
    put<std::int64_t>(out, p.sent_at.nanos());

    if (p.flow.size() > 0xFFFF) return std::nullopt;
    put<std::uint16_t>(out, static_cast<std::uint16_t>(p.flow.size()));
    common::put_raw(out, p.flow);

    std::vector<std::byte> body;
    if (*tag != kTagEmpty) (*codecs.encoder(*tag))(p.payload, body);
    common::put_bytes(out, body);

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
    constexpr std::size_t kCrcBytes = 4;
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

    DecodedFrame out;
    const auto prio = r.get<std::uint8_t>();
    if (!r.ok()) return reject(FrameDefect::Truncated);
    if (prio > static_cast<std::uint8_t>(Priority::Bulk))
        return reject(FrameDefect::BadPriority);
    out.priority = static_cast<Priority>(prio);
    const auto tag = r.get<std::uint16_t>();
    out.packet.src = r.get<std::uint32_t>();
    out.packet.dst = r.get<std::uint32_t>();
    out.packet.id = r.get<std::uint64_t>();
    out.packet.size_bytes = static_cast<std::size_t>(r.get<std::uint64_t>());
    out.packet.sent_at = sim::Time::ns(r.get<std::int64_t>());

    out.packet.flow = r.str(r.get<std::uint16_t>());
    const auto body = std::as_bytes(r.bytes());
    if (!r.ok()) return reject(FrameDefect::Truncated);

    // The CRC must be exactly the remaining four bytes: trailing garbage is
    // as much a defect as truncation.
    if (r.remaining() < kCrcBytes) return reject(FrameDefect::Truncated);
    if (r.remaining() > kCrcBytes) return reject(FrameDefect::TrailingGarbage);
    const auto stored = r.get<std::uint32_t>();
    if (stored != crc32(frame.first(frame.size() - kCrcBytes)))
        return reject(FrameDefect::CrcMismatch);

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
    put<std::uint16_t>(out, *tag);
    std::vector<std::byte> body;
    if (*tag != kTagEmpty) (*codecs.encoder(*tag))(p, body);
    common::put_bytes(out, body);
    return true;
}

std::optional<Payload> decode_nested_payload(Reader& r) {
    const auto tag = r.get<std::uint16_t>();
    const auto body = std::as_bytes(r.bytes());
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
