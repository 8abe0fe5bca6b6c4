#pragma once
// Raw observations produced by the tracking hardware models before fusion.

#include "common/fixed_vector.hpp"
#include "common/ids.hpp"
#include "math/pose.hpp"
#include "sim/time.hpp"

namespace mvc::sensing {

/// Most facial blendshape channels a device captures (the tethered MR
/// headset samples 32; an avatar carries the first 16 on the wire).
inline constexpr std::size_t kMaxExpressionChannels = 32;

/// Blendshape coefficients in [0,1], stored inline.
using ExpressionChannels = common::FixedVector<double, kMaxExpressionChannels>;

enum class SensorSource : std::uint8_t {
    Headset,      // 6-DoF inside-out tracking + face capture
    RoomCamera,   // external, position-only, subject to occlusion
};

/// One tracking observation of one participant.
struct SensorSample {
    ParticipantId participant;
    sim::Time captured_at{};
    SensorSource source{SensorSource::Headset};
    /// Measured pose; room cameras report identity orientation with
    /// `has_orientation == false`.
    math::Pose pose;
    bool has_orientation{true};
    /// Facial blendshape coefficients in [0,1]; empty for room cameras.
    ExpressionChannels expression;
};

/// Ground-truth kinematics + expression, supplied by the behaviour scripts.
struct GroundTruth {
    math::KinematicState kinematics;
    ExpressionChannels expression;
};

}  // namespace mvc::sensing
