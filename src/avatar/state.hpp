#pragma once
// Replicated avatar state: everything the other classrooms need to draw a
// participant's digital twin — root kinematics, the tracked upper-body
// joints, facial expression, and the current speech viseme.

#include "common/fixed_vector.hpp"
#include "common/ids.hpp"
#include "math/pose.hpp"
#include "sim/time.hpp"

namespace mvc::avatar {

/// Number of facial blendshape channels on the wire (ARKit-style basis,
/// truncated to the channels that read at classroom distances).
inline constexpr std::size_t kExpressionChannels = 16;

/// Tracked body joints replicated explicitly; the rest of the skeleton is
/// reconstructed by IK on the receiver.
struct BodyPose {
    math::Pose head;
    math::Pose left_hand;
    math::Pose right_hand;
};

struct AvatarState {
    ParticipantId participant;
    /// Root (hips) kinematics in the avatar's source-classroom frame.
    math::KinematicState root;
    BodyPose body;
    /// Blendshape coefficients in [0,1]; size kExpressionChannels.
    common::FixedVector<double, kExpressionChannels> expression;
    /// Current mouth viseme index (0 = silence), driven by the audio stream.
    std::uint8_t viseme{0};
    /// Capture timestamp at the source.
    sim::Time captured_at{};
};

/// Pose error between two avatar states as perceived by a viewer: root pose
/// error plus mean tracked-joint error (metres + weighted radians).
[[nodiscard]] double avatar_error(const AvatarState& a, const AvatarState& b);

/// Extrapolate an avatar state `dt` ahead using its root kinematics; body
/// joints follow the root rigidly (receiver-side dead reckoning).
[[nodiscard]] AvatarState extrapolate(const AvatarState& s, double dt);

}  // namespace mvc::avatar
