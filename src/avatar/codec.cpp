#include "avatar/codec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/bytes.hpp"

namespace mvc::avatar {

namespace {

// Smallest-three quaternion packing: drop the largest-magnitude component
// (recomputable from unit norm), flip sign so it is positive, and quantize
// the remaining three over [-1/sqrt2, 1/sqrt2].
constexpr double kQuatComponentRange = 0.70710678118654752440;

using Bytes = std::vector<std::uint8_t>;
using common::put;
using common::Reader;

void write_quat(Bytes& w, const math::Quat& q_in) {
    const math::Quat q = q_in.normalized();
    const double comps[4] = {q.w, q.x, q.y, q.z};
    std::size_t largest = 0;
    for (std::size_t i = 1; i < 4; ++i) {
        if (std::abs(comps[i]) > std::abs(comps[largest])) largest = i;
    }
    const double sign = comps[largest] < 0.0 ? -1.0 : 1.0;
    put(w, static_cast<std::uint8_t>(largest));
    for (std::size_t i = 0; i < 4; ++i) {
        if (i == largest) continue;
        put(w, quantize16(comps[i] * sign, -kQuatComponentRange, kQuatComponentRange));
    }
}

math::Quat read_quat(Reader& r) {
    const std::size_t largest = r.get<std::uint8_t>();
    if (largest > 3) r.fail();
    if (!r.ok()) return {};
    double comps[4] = {0, 0, 0, 0};
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        if (i == largest) continue;
        comps[i] = dequantize16(r.get<std::int16_t>(), -kQuatComponentRange,
                                kQuatComponentRange);
        sum_sq += comps[i] * comps[i];
    }
    comps[largest] = std::sqrt(std::max(0.0, 1.0 - sum_sq));
    return math::Quat{comps[0], comps[1], comps[2], comps[3]}.normalized();
}

void write_vec(Bytes& w, const math::Vec3& v, double range) {
    put(w, quantize16(v.x, -range, range));
    put(w, quantize16(v.y, -range, range));
    put(w, quantize16(v.z, -range, range));
}

math::Vec3 read_vec(Reader& r, double range) {
    const double x = dequantize16(r.get<std::int16_t>(), -range, range);
    const double y = dequantize16(r.get<std::int16_t>(), -range, range);
    const double z = dequantize16(r.get<std::int16_t>(), -range, range);
    return {x, y, z};
}

// Delta group bits.
enum : std::uint16_t {
    kRootPos = 1u << 0,
    kRootRot = 1u << 1,
    kLinVel = 1u << 2,
    kAngVel = 1u << 3,
    kHead = 1u << 4,
    kLeftHand = 1u << 5,
    kRightHand = 1u << 6,
    kExpression = 1u << 7,
    kViseme = 1u << 8,
};

/// Bytes of one full snapshot: participant and capture time, root pose and
/// velocities, three body joints, the expression channels and the viseme.
constexpr std::size_t kFullSnapshotBytes =
    4 + 8 + (6 + 7 + 6 + 6) + 3 * (6 + 7) + kExpressionChannels + 1;

bool pose_changed(const math::Pose& a, const math::Pose& b, const DeltaThresholds& t) {
    return a.position.distance_to(b.position) > t.position_m ||
           math::angular_distance(a.orientation, b.orientation) > t.rotation_rad;
}

}  // namespace

std::int16_t quantize16(double v, double lo, double hi) {
    const double clamped = std::clamp(v, lo, hi);
    const double unit = (clamped - lo) / (hi - lo);  // [0,1]
    return static_cast<std::int16_t>(std::lround(unit * 65535.0) - 32768);
}

double dequantize16(std::int16_t q, double lo, double hi) {
    const double unit = (static_cast<double>(q) + 32768.0) / 65535.0;
    return lo + unit * (hi - lo);
}

std::uint8_t quantize8_unit(double v) {
    return static_cast<std::uint8_t>(std::lround(std::clamp(v, 0.0, 1.0) * 255.0));
}

double dequantize8_unit(std::uint8_t q) { return static_cast<double>(q) / 255.0; }

AvatarCodec::AvatarCodec(CodecBounds bounds, DeltaThresholds thresholds)
    : bounds_(bounds), thresholds_(thresholds) {}

double AvatarCodec::position_resolution() const {
    return 2.0 * bounds_.pos_range_m / 65535.0;
}

std::vector<std::uint8_t> AvatarCodec::encode_full(const AvatarState& s) const {
    Bytes w;
    w.reserve(kFullSnapshotBytes);
    encode_full(s, w);
    return w;
}

void AvatarCodec::encode_full(const AvatarState& s, Bytes& w) const {
    put(w, s.participant.value());
    put(w, static_cast<std::uint64_t>(s.captured_at.nanos() / 1000));  // microseconds
    write_vec(w, s.root.pose.position, bounds_.pos_range_m);
    write_quat(w, s.root.pose.orientation);
    write_vec(w, s.root.linear_velocity, bounds_.linear_vel_range);
    write_vec(w, s.root.angular_velocity, bounds_.angular_vel_range);
    // Body joints relative to the root, so they fit the tight body range.
    for (const math::Pose* p : {&s.body.head, &s.body.left_hand, &s.body.right_hand}) {
        write_vec(w, p->position - s.root.pose.position, bounds_.body_range_m);
        write_quat(w, p->orientation);
    }
    for (std::size_t i = 0; i < kExpressionChannels; ++i) {
        put(w, quantize8_unit(i < s.expression.size() ? s.expression[i] : 0.0));
    }
    put(w, s.viseme);
}

std::optional<AvatarState> AvatarCodec::try_decode_full(
    std::span<const std::uint8_t> bytes) const {
    Reader r{bytes};
    AvatarState s;
    s.participant = ParticipantId{r.get<std::uint32_t>()};
    s.captured_at = sim::Time::us(static_cast<std::int64_t>(r.get<std::uint64_t>()));
    s.root.pose.position = read_vec(r, bounds_.pos_range_m);
    s.root.pose.orientation = read_quat(r);
    s.root.linear_velocity = read_vec(r, bounds_.linear_vel_range);
    s.root.angular_velocity = read_vec(r, bounds_.angular_vel_range);
    for (math::Pose* p : {&s.body.head, &s.body.left_hand, &s.body.right_hand}) {
        p->position = s.root.pose.position + read_vec(r, bounds_.body_range_m);
        p->orientation = read_quat(r);
    }
    s.expression.resize(kExpressionChannels);
    for (std::size_t i = 0; i < kExpressionChannels; ++i) {
        s.expression[i] = dequantize8_unit(r.get<std::uint8_t>());
    }
    s.viseme = r.get<std::uint8_t>();
    if (!r.ok()) return std::nullopt;
    return s;
}

AvatarState AvatarCodec::decode_full(std::span<const std::uint8_t> bytes) const {
    std::optional<AvatarState> s = try_decode_full(bytes);
    if (!s) throw std::out_of_range("AvatarCodec::decode_full: malformed snapshot");
    return std::move(*s);
}

std::vector<std::uint8_t> AvatarCodec::encode_delta(const AvatarState& reference,
                                                    const AvatarState& current) const {
    Bytes w;
    encode_delta(reference, current, w);
    return w;
}

void AvatarCodec::encode_delta(const AvatarState& reference, const AvatarState& current,
                               Bytes& w) const {
    const DeltaThresholds& t = thresholds_;
    std::uint16_t mask = 0;
    if (current.root.pose.position.distance_to(reference.root.pose.position) > t.position_m)
        mask |= kRootPos;
    if (math::angular_distance(current.root.pose.orientation,
                               reference.root.pose.orientation) > t.rotation_rad)
        mask |= kRootRot;
    if ((current.root.linear_velocity - reference.root.linear_velocity).norm() > t.velocity)
        mask |= kLinVel;
    if ((current.root.angular_velocity - reference.root.angular_velocity).norm() > t.velocity)
        mask |= kAngVel;
    if (pose_changed(current.body.head, reference.body.head, t)) mask |= kHead;
    if (pose_changed(current.body.left_hand, reference.body.left_hand, t)) mask |= kLeftHand;
    if (pose_changed(current.body.right_hand, reference.body.right_hand, t))
        mask |= kRightHand;

    std::uint16_t expr_mask = 0;
    for (std::size_t i = 0; i < kExpressionChannels; ++i) {
        const double cur = i < current.expression.size() ? current.expression[i] : 0.0;
        const double ref = i < reference.expression.size() ? reference.expression[i] : 0.0;
        if (std::abs(cur - ref) > t.expression) expr_mask |= static_cast<std::uint16_t>(1u << i);
    }
    if (expr_mask != 0) mask |= kExpression;
    if (current.viseme != reference.viseme) mask |= kViseme;

    put(w, mask);
    put(w, static_cast<std::uint32_t>(current.captured_at.nanos() / 1000000));  // ms
    if (mask & kRootPos) write_vec(w, current.root.pose.position, bounds_.pos_range_m);
    if (mask & kRootRot) write_quat(w, current.root.pose.orientation);
    if (mask & kLinVel) write_vec(w, current.root.linear_velocity, bounds_.linear_vel_range);
    if (mask & kAngVel)
        write_vec(w, current.root.angular_velocity, bounds_.angular_vel_range);
    const math::Vec3 root_pos = (mask & kRootPos) ? current.root.pose.position
                                                  : reference.root.pose.position;
    const auto write_joint = [&](const math::Pose& p) {
        write_vec(w, p.position - root_pos, bounds_.body_range_m);
        write_quat(w, p.orientation);
    };
    if (mask & kHead) write_joint(current.body.head);
    if (mask & kLeftHand) write_joint(current.body.left_hand);
    if (mask & kRightHand) write_joint(current.body.right_hand);
    if (mask & kExpression) {
        put(w, expr_mask);
        for (std::size_t i = 0; i < kExpressionChannels; ++i) {
            if (expr_mask & (1u << i)) {
                put(w, quantize8_unit(i < current.expression.size() ? current.expression[i]
                                                                    : 0.0));
            }
        }
    }
    if (mask & kViseme) put(w, current.viseme);
}

std::optional<AvatarState> AvatarCodec::try_decode_delta(
    const AvatarState& reference, std::span<const std::uint8_t> bytes) const {
    Reader r{bytes};
    AvatarState s = reference;
    const auto mask = r.get<std::uint16_t>();
    s.captured_at = sim::Time::ms(static_cast<double>(r.get<std::uint32_t>()));
    if (mask & kRootPos) s.root.pose.position = read_vec(r, bounds_.pos_range_m);
    if (mask & kRootRot) s.root.pose.orientation = read_quat(r);
    if (mask & kLinVel) s.root.linear_velocity = read_vec(r, bounds_.linear_vel_range);
    if (mask & kAngVel) s.root.angular_velocity = read_vec(r, bounds_.angular_vel_range);
    const auto read_joint = [&](math::Pose& p) {
        p.position = s.root.pose.position + read_vec(r, bounds_.body_range_m);
        p.orientation = read_quat(r);
    };
    if (mask & kHead) read_joint(s.body.head);
    if (mask & kLeftHand) read_joint(s.body.left_hand);
    if (mask & kRightHand) read_joint(s.body.right_hand);
    if (mask & kExpression) {
        const auto expr_mask = r.get<std::uint16_t>();
        if (s.expression.size() < kExpressionChannels)
            s.expression.resize(kExpressionChannels, 0.0);
        for (std::size_t i = 0; i < kExpressionChannels; ++i) {
            if (expr_mask & (1u << i)) s.expression[i] = dequantize8_unit(r.get<std::uint8_t>());
        }
    }
    if (mask & kViseme) s.viseme = r.get<std::uint8_t>();
    if (!r.ok()) return std::nullopt;
    return s;
}

AvatarState AvatarCodec::decode_delta(const AvatarState& reference,
                                      std::span<const std::uint8_t> bytes) const {
    std::optional<AvatarState> s = try_decode_delta(reference, bytes);
    if (!s) throw std::out_of_range("AvatarCodec::decode_delta: malformed delta");
    return std::move(*s);
}

}  // namespace mvc::avatar
