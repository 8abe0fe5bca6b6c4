#pragma once
// Datagram wire format for the real UDP transport. The simulated Network
// never serializes — payloads cross node boundaries as in-process boxes —
// but a datagram that leaves the process must carry real bytes. This module
// defines the frame layout and a small codec registry that maps payload
// types to wire tags.
//
// Frame layout, version 2 (written and read with the common/bytes.hpp codec
// that every payload codec also uses). Fixed-width fields are little-endian;
// a varint is an unsigned LEB128 in its minimal form, and a zigzag varint
// holds a signed value:
//
//   field       encoding          notes
//   magic       u32               "MVDG"
//   version     u8                kWireVersion
//   priority    u8                net::Priority
//   tag         varint (u16)      codec registry id; kTagEmpty for no payload
//   src         varint (u32)      source node id
//   dst         varint (u32)      destination node id
//   packet id   varint (u64)
//   size_bytes  varint (u64)      the *modeled* application size the sender
//                                 was charged for; the datagram is usually
//                                 smaller
//   sent_at     zigzag varint     ns since the sender's clock epoch
//   flow        varint length, then the flow label's bytes
//   body        the payload codec's bytes, up to the CRC (no length field)
//   crc         u32               CRC-32 over every preceding byte
//
// A frame is 17 bytes at the least. Payload codecs write ids, counts,
// lengths, sequence numbers and times as varints (times zigzag); only
// random-valued fields such as nonces stay fixed-width.
//
// The CRC (common::crc32) closes the frame, and the decoder checks it right
// after the magic and version, before it parses any varint: a truncated or
// corrupted datagram is rejected as such, never misread through a damaged
// length. Decoding never throws on bad input: malformed frames return
// std::nullopt and the backend counts them.
//
// Codecs are registered per payload type (register_codec<T>); both endpoint
// processes must register the same tags — src/core/wire_codecs.hpp does
// this for every model payload in one place.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "net/packet.hpp"

namespace mvc::net {

inline constexpr std::uint32_t kWireMagic = 0x4744564DU;  // "MVDG" little-endian
inline constexpr std::uint8_t kWireVersion = 2;
/// Tag stamped on frames whose packet carried no payload.
inline constexpr std::uint16_t kTagEmpty = 0;

/// Payload codec registry: tag <-> typed encode/decode, process-global.
/// Registration is not thread-safe (do it at startup, before any traffic);
/// lookup is read-only afterwards.
class WireCodecs {
public:
    /// An encoder appends the payload's body to the buffer, which already
    /// holds whatever precedes the body (the frame header); a decoder parses
    /// one whole body.
    using Encode = std::function<void(const Payload&, std::vector<std::byte>&)>;
    using Decode = std::function<std::optional<Payload>(std::span<const std::byte>)>;

    [[nodiscard]] static WireCodecs& instance();

    /// Register codec functions for T under `tag`. Throws std::logic_error
    /// on a tag or type collision (same T re-registered with identical tag
    /// is an idempotent no-op, so translation-unit-level registration can
    /// run more than once).
    template <class T>
    void register_codec(std::uint16_t tag, Encode encode, Decode decode) {
        add(tag, detail::payload_type_id<T>(), std::move(encode), std::move(decode));
    }

    /// Tag for a payload's runtime type; nullopt when no codec is registered.
    [[nodiscard]] std::optional<std::uint16_t> tag_of(const Payload& p) const;
    [[nodiscard]] const Encode* encoder(std::uint16_t tag) const;
    [[nodiscard]] const Decode* decoder(std::uint16_t tag) const;

private:
    struct Entry {
        std::uint16_t tag;
        detail::PayloadTypeId type;
        Encode encode;
        Decode decode;
    };

    void add(std::uint16_t tag, detail::PayloadTypeId type, Encode encode,
             Decode decode);

    std::vector<Entry> entries_;  // few codecs; linear scan beats map overhead
};

/// Serialize a packet into one datagram frame. Returns nullopt when the
/// payload's type has no registered codec (the caller counts and drops —
/// sending an undecodable frame would only move the error to the peer).
[[nodiscard]] std::optional<std::vector<std::byte>> encode_frame(const Packet& p,
                                                                 Priority priority);

/// Parse one datagram. Returns nullopt on any defect: short frame, bad
/// magic/version, CRC mismatch, a malformed header field, unknown payload
/// tag, or a payload body its codec rejects. A frame that decodes re-encodes
/// to exactly its own bytes.
struct DecodedFrame {
    Packet packet;
    Priority priority{Priority::Realtime};
};
[[nodiscard]] std::optional<DecodedFrame> decode_frame(std::span<const std::byte> frame);

/// Why a frame was rejected. The backend exports per-reason ingress-reject
/// counters so chaos on a real wire is observable, not just droppable.
enum class FrameDefect : std::uint8_t {
    None,             ///< frame decoded fine
    BadMagic,         ///< not our protocol (foreign datagram)
    BadVersion,       ///< our magic, incompatible version
    BadPriority,      ///< priority byte outside the enum
    Truncated,        ///< too short, or a CRC-valid header field is malformed
    TrailingGarbage,  ///< the frame's CRC matched before its last four bytes
    CrcMismatch,      ///< checksum failed: corruption in flight
    UnknownTag,       ///< no codec registered for the payload tag
    BadPayload,       ///< CRC fine but the payload codec rejected the body
};
inline constexpr std::size_t kFrameDefectCount = 9;
[[nodiscard]] std::string_view frame_defect_name(FrameDefect d);

/// decode_frame with the rejection reason reported (FrameDefect::None on
/// success). The reason-less overload above delegates here.
[[nodiscard]] std::optional<DecodedFrame> decode_frame(std::span<const std::byte> frame,
                                                       FrameDefect& defect);

/// Encode a payload nested *inside* another payload's body, as its last
/// field (the ARQ wrapper carries the application payload this way): a
/// varint tag, then the body up to the end of the enclosing body. Returns
/// false, having written nothing, when the payload's type has no registered
/// codec.
[[nodiscard]] bool encode_nested_payload(const Payload& p, std::vector<std::byte>& out);

/// Inverse of encode_nested_payload; consumes the rest of `r`. nullopt on
/// unknown tag or codec reject.
[[nodiscard]] std::optional<Payload> decode_nested_payload(common::Reader& r);

}  // namespace mvc::net
