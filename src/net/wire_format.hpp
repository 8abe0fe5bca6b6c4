#pragma once
// Datagram wire format for the real UDP transport. The simulated Network
// never serializes — payloads cross node boundaries as in-process boxes —
// but a datagram that leaves the process must carry real bytes. This module
// defines the frame layout and a small codec registry that maps payload
// types to wire tags.
//
// Frame layout (all integers little-endian, fixed width; written and read
// with the common/bytes.hpp codec that every payload codec also uses):
//
//   offset size field
//        0    4 magic "MVDG"
//        4    1 version (kWireVersion)
//        5    1 priority (net::Priority)
//        6    2 payload tag (codec registry id; kTagEmpty for no payload)
//        8    4 src node id
//       12    4 dst node id
//       16    8 packet id
//       24    8 size_bytes (the *modeled* application size the sender was
//                charged for; the actual datagram is usually smaller)
//       32    8 sent_at, ns since the sender's clock epoch (signed)
//       40    2 flow label length  -> followed by the flow bytes
//        .    4 payload body length -> followed by the payload bytes
//        .    4 CRC-32 over every preceding byte of the frame
//
// The CRC (common::crc32) closes the frame so a truncated, corrupted, or foreign datagram is
// rejected before any payload decode runs. Decoding never throws on bad
// input: malformed frames return std::nullopt and the backend counts them.
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
inline constexpr std::uint8_t kWireVersion = 1;
/// Tag stamped on frames whose packet carried no payload.
inline constexpr std::uint16_t kTagEmpty = 0;

/// Payload codec registry: tag <-> typed encode/decode, process-global.
/// Registration is not thread-safe (do it at startup, before any traffic);
/// lookup is read-only afterwards.
class WireCodecs {
public:
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
/// magic/version, length fields pointing outside the buffer, CRC mismatch,
/// unknown payload tag, or a payload body its codec rejects.
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
    Truncated,        ///< a length field points past the end of the datagram
    TrailingGarbage,  ///< bytes after the payload body that are not the CRC
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

/// Encode a payload nested *inside* another payload's body (the ARQ wrapper
/// carries the application payload this way): tag(u16) + body_len(u32) +
/// body. Returns false when the payload's type has no registered codec.
[[nodiscard]] bool encode_nested_payload(const Payload& p, std::vector<std::byte>& out);

/// Inverse of encode_nested_payload; consumes from `r` and leaves it
/// positioned after the nested body. nullopt on unknown tag or codec reject.
[[nodiscard]] std::optional<Payload> decode_nested_payload(common::Reader& r);

}  // namespace mvc::net
