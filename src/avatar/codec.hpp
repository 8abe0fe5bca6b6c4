#pragma once
// Quantized wire codecs for avatar state. Two formats:
//  - full snapshot (~90 bytes): everything, sent at keyframe interval or to
//    late joiners;
//  - delta (~2-60 bytes): only the channel groups that moved beyond a
//    perceptual threshold since the acknowledged reference state.
// Encoding produces real byte buffers so the avatar-vs-video traffic
// experiment (E2) measures honest sizes, and round-trip precision bounds are
// unit-tested.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "avatar/state.hpp"

namespace mvc::avatar {

struct CodecBounds {
    /// Root position range per axis (covers any campus classroom).
    double pos_range_m{100.0};
    /// Body-joint offset range relative to the root.
    double body_range_m{2.0};
    double linear_vel_range{10.0};
    double angular_vel_range{20.0};
};

struct DeltaThresholds {
    double position_m{0.002};
    double rotation_rad{0.005};
    double velocity{0.05};
    double expression{0.015};  // ~2 quantization steps
};

class AvatarCodec {
public:
    explicit AvatarCodec(CodecBounds bounds = {}, DeltaThresholds thresholds = {});

    [[nodiscard]] std::vector<std::uint8_t> encode_full(const AvatarState& s) const;
    /// Append the full snapshot of `s` to `out`; allocation-free once `out`
    /// has the capacity (a sender's reused scratch buffer).
    void encode_full(const AvatarState& s, std::vector<std::uint8_t>& out) const;
    /// nullopt when `bytes` is truncated or malformed; never throws, so it
    /// is safe on bytes that arrived from a socket.
    [[nodiscard]] std::optional<AvatarState> try_decode_full(
        std::span<const std::uint8_t> bytes) const;
    /// try_decode_full for trusted bytes; throws std::out_of_range instead.
    [[nodiscard]] AvatarState decode_full(std::span<const std::uint8_t> bytes) const;

    /// Delta against `reference` (the last state the receiver is known to
    /// hold). Unchanged groups cost nothing beyond the 2-byte mask.
    [[nodiscard]] std::vector<std::uint8_t> encode_delta(const AvatarState& reference,
                                                         const AvatarState& current) const;
    /// Append the delta of `current` against `reference` to `out`.
    void encode_delta(const AvatarState& reference, const AvatarState& current,
                      std::vector<std::uint8_t>& out) const;
    /// Apply a delta on top of `reference`; nullopt when `bytes` is
    /// truncated or malformed. Never throws.
    [[nodiscard]] std::optional<AvatarState> try_decode_delta(
        const AvatarState& reference, std::span<const std::uint8_t> bytes) const;
    /// try_decode_delta for trusted bytes; throws std::out_of_range instead.
    [[nodiscard]] AvatarState decode_delta(const AvatarState& reference,
                                           std::span<const std::uint8_t> bytes) const;

    [[nodiscard]] const CodecBounds& bounds() const { return bounds_; }
    [[nodiscard]] const DeltaThresholds& thresholds() const { return thresholds_; }

    /// Worst-case round-trip position error of the full codec (metres).
    [[nodiscard]] double position_resolution() const;

private:
    CodecBounds bounds_;
    DeltaThresholds thresholds_;
};

/// Quantize a double in [lo, hi] to a signed 16-bit integer; values outside
/// the range clamp. Resolution = (hi-lo)/65535.
[[nodiscard]] std::int16_t quantize16(double v, double lo, double hi);
[[nodiscard]] double dequantize16(std::int16_t q, double lo, double hi);

/// Quantize a value in [0,1] to 8 bits.
[[nodiscard]] std::uint8_t quantize8_unit(double v);
[[nodiscard]] double dequantize8_unit(std::uint8_t q);

}  // namespace mvc::avatar
