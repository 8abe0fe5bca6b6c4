// Tests for the avatar layer: skeleton forward kinematics, quantized wire
// codecs (round-trip precision, delta masks, byte sizes, hostile input),
// the replica's drop-and-count path, state helpers and the LOD ladder.

#include <gtest/gtest.h>

#include <random>

#include "avatar/codec.hpp"
#include "avatar/lod.hpp"
#include "avatar/skeleton.hpp"
#include "sync/replication.hpp"

namespace mvc::avatar {
namespace {

// ----------------------------------------------------------------- serialize

TEST(SerializeTest, Quantize16RoundTripWithinResolution) {
    const double lo = -10.0;
    const double hi = 10.0;
    const double resolution = (hi - lo) / 65535.0;
    std::mt19937 gen{4};
    std::uniform_real_distribution<double> d{lo, hi};
    for (int i = 0; i < 2000; ++i) {
        const double v = d(gen);
        const double back = dequantize16(quantize16(v, lo, hi), lo, hi);
        EXPECT_NEAR(back, v, resolution);
    }
}

TEST(SerializeTest, Quantize16Clamps) {
    EXPECT_DOUBLE_EQ(dequantize16(quantize16(99.0, -1.0, 1.0), -1.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(dequantize16(quantize16(-99.0, -1.0, 1.0), -1.0, 1.0), -1.0);
}

TEST(SerializeTest, Quantize8Unit) {
    EXPECT_EQ(quantize8_unit(0.0), 0);
    EXPECT_EQ(quantize8_unit(1.0), 255);
    EXPECT_EQ(quantize8_unit(2.0), 255);
    EXPECT_NEAR(dequantize8_unit(quantize8_unit(0.4)), 0.4, 1.0 / 255.0);
}

// ------------------------------------------------------------------ skeleton

TEST(SkeletonTest, ClassroomHumanoidWellFormed) {
    const Skeleton sk = Skeleton::classroom_humanoid();
    EXPECT_EQ(sk.joint_count(), 19u);
    EXPECT_EQ(sk.find("head"), 4);
    EXPECT_EQ(sk.find("nonexistent"), -1);
    EXPECT_EQ(sk.joint(0).parent, -1);
}

TEST(SkeletonTest, RestPoseFkStacksOffsets) {
    const Skeleton sk = Skeleton::classroom_humanoid();
    const std::vector<math::Quat> rest(sk.joint_count(), math::Quat::identity());
    const auto world = sk.forward_kinematics(math::Pose::identity(), rest);
    const int head = sk.find("head");
    ASSERT_GE(head, 0);
    // hips(0.95) + spine(.15) + chest(.15) + neck(.12) + head(.10) = 1.47 m.
    EXPECT_NEAR(world[static_cast<std::size_t>(head)].position.y, 1.47, 1e-9);
}

TEST(SkeletonTest, RootPoseTransformsAll) {
    const Skeleton sk = Skeleton::classroom_humanoid();
    const std::vector<math::Quat> rest(sk.joint_count(), math::Quat::identity());
    const math::Pose root{{3, 0, -2}, math::Quat::identity()};
    const auto world = sk.forward_kinematics(root, rest);
    EXPECT_NEAR(world[0].position.x, 3.0, 1e-12);
    EXPECT_NEAR(world[0].position.z, -2.0, 1e-12);
}

TEST(SkeletonTest, JointRotationMovesChildren) {
    const Skeleton sk = Skeleton::classroom_humanoid();
    std::vector<math::Quat> rot(sk.joint_count(), math::Quat::identity());
    const int shoulder = sk.find("r_shoulder");
    ASSERT_GE(shoulder, 0);
    // Rotate the right shoulder 90 deg about z: the arm should point up.
    rot[static_cast<std::size_t>(shoulder)] =
        math::Quat::from_axis_angle(math::Vec3::unit_z(), 1.5707963267948966);
    const auto world = sk.forward_kinematics(math::Pose::identity(), rot);
    const int hand = sk.find("r_hand");
    const int chest = sk.find("chest");
    ASSERT_GE(hand, 0);
    // Hand now above the chest instead of out to the side.
    EXPECT_GT(world[static_cast<std::size_t>(hand)].position.y,
              world[static_cast<std::size_t>(chest)].position.y + 0.3);
}

TEST(SkeletonTest, MalformedHierarchiesThrow) {
    EXPECT_THROW(Skeleton({}), std::invalid_argument);
    EXPECT_THROW(Skeleton({{"a", -1, {}}, {"b", 5, {}}}), std::invalid_argument);
    EXPECT_THROW(Skeleton({{"a", -1, {}}, {"b", -1, {}}}), std::invalid_argument);
}

TEST(SkeletonTest, FkRotationCountMismatchThrows) {
    const Skeleton sk = Skeleton::classroom_humanoid();
    EXPECT_THROW((void)sk.forward_kinematics(math::Pose::identity(), {}),
                 std::invalid_argument);
}

// --------------------------------------------------------------------- state

AvatarState sample_state(std::uint32_t id = 5) {
    AvatarState s;
    s.participant = ParticipantId{id};
    s.root.pose = {{3.2, 0.0, -7.5}, math::Quat::from_yaw_pitch_roll(0.4, 0.1, 0.0)};
    s.root.linear_velocity = {0.5, 0.0, -0.2};
    s.root.angular_velocity = {0.0, 0.3, 0.0};
    s.body.head = {s.root.pose.position + math::Vec3{0, 0.65, 0}, s.root.pose.orientation};
    s.body.left_hand = {s.root.pose.position + math::Vec3{-0.25, 0.35, -0.2},
                        s.root.pose.orientation};
    s.body.right_hand = {s.root.pose.position + math::Vec3{0.25, 0.35, -0.2},
                         s.root.pose.orientation};
    s.expression.assign(kExpressionChannels, 0.25);
    s.viseme = 3;
    s.captured_at = sim::Time::ms(1234.0);
    return s;
}

TEST(AvatarStateTest, ErrorZeroForIdentical) {
    const AvatarState s = sample_state();
    EXPECT_DOUBLE_EQ(avatar_error(s, s), 0.0);
}

TEST(AvatarStateTest, ExtrapolateMovesRootAndJointsTogether) {
    const AvatarState s = sample_state();
    const AvatarState next = extrapolate(s, 2.0);
    const math::Vec3 shift = next.root.pose.position - s.root.pose.position;
    EXPECT_TRUE(math::approx_equal(shift, {1.0, 0.0, -0.4}, 1e-9));
    EXPECT_TRUE(math::approx_equal(next.body.head.position - s.body.head.position, shift,
                                   1e-9));
}

// --------------------------------------------------------------------- codec

TEST(CodecTest, FullRoundTripWithinQuantizationBounds) {
    const AvatarCodec codec;
    const AvatarState s = sample_state();
    const auto bytes = codec.encode_full(s);
    const AvatarState d = codec.decode_full(bytes);

    EXPECT_EQ(d.participant, s.participant);
    EXPECT_EQ(d.viseme, s.viseme);
    EXPECT_LT(d.root.pose.position.distance_to(s.root.pose.position),
              2.0 * codec.position_resolution());
    EXPECT_LT(math::angular_distance(d.root.pose.orientation, s.root.pose.orientation),
              0.002);
    EXPECT_LT(d.body.head.position.distance_to(s.body.head.position), 0.005);
    for (std::size_t i = 0; i < kExpressionChannels; ++i) {
        EXPECT_NEAR(d.expression[i], s.expression[i], 1.0 / 255.0);
    }
    EXPECT_NEAR((d.captured_at - s.captured_at).to_ms(), 0.0, 0.01);
}

TEST(CodecTest, FullSnapshotIsCompact) {
    const AvatarCodec codec;
    const auto bytes = codec.encode_full(sample_state());
    // The whole avatar — pose, velocities, 3 joints, 16 expression channels —
    // must fit in about a hundred bytes (the E2 premise).
    EXPECT_LE(bytes.size(), 120u);
    EXPECT_GE(bytes.size(), 60u);
}

TEST(CodecTest, FullRoundTripRandomized) {
    const AvatarCodec codec;
    std::mt19937 gen{12};
    std::uniform_real_distribution<double> pos{-50.0, 50.0};
    std::uniform_real_distribution<double> ang{-3.0, 3.0};
    for (int i = 0; i < 200; ++i) {
        AvatarState s = sample_state();
        s.root.pose.position = {pos(gen), pos(gen), pos(gen)};
        s.root.pose.orientation = math::Quat::from_yaw_pitch_roll(ang(gen), ang(gen) / 2,
                                                                  ang(gen) / 2);
        s.body.head.position = s.root.pose.position + math::Vec3{0, 0.6, 0};
        const AvatarState d = codec.decode_full(codec.encode_full(s));
        EXPECT_LT(d.root.pose.position.distance_to(s.root.pose.position), 0.01);
        EXPECT_LT(math::angular_distance(d.root.pose.orientation, s.root.pose.orientation),
                  0.01);
    }
}

TEST(CodecTest, DeltaOfIdenticalStateIsTiny) {
    const AvatarCodec codec;
    const AvatarState s = sample_state();
    const auto bytes = codec.encode_delta(s, s);
    // Mask + timestamp only.
    EXPECT_LE(bytes.size(), 6u);
}

TEST(CodecTest, DeltaEncodesOnlyChangedGroups) {
    const AvatarCodec codec;
    const AvatarState ref = sample_state();
    AvatarState cur = ref;
    cur.root.pose.position += math::Vec3{0.5, 0, 0};
    cur.body.head.position += math::Vec3{0.5, 0, 0};
    const auto delta = codec.encode_delta(ref, cur);
    const auto full = codec.encode_full(cur);
    EXPECT_LT(delta.size(), full.size());

    const AvatarState d = codec.decode_delta(ref, delta);
    EXPECT_LT(d.root.pose.position.distance_to(cur.root.pose.position), 0.01);
    EXPECT_LT(d.body.head.position.distance_to(cur.body.head.position), 0.01);
    // Unchanged fields survive from the reference.
    EXPECT_EQ(d.viseme, ref.viseme);
}

TEST(CodecTest, DeltaVisemeOnly) {
    const AvatarCodec codec;
    const AvatarState ref = sample_state();
    AvatarState cur = ref;
    cur.viseme = 9;
    const auto delta = codec.encode_delta(ref, cur);
    EXPECT_LE(delta.size(), 8u);
    EXPECT_EQ(codec.decode_delta(ref, delta).viseme, 9);
}

TEST(CodecTest, DeltaExpressionChannelMask) {
    const AvatarCodec codec;
    const AvatarState ref = sample_state();
    AvatarState cur = ref;
    cur.expression[3] = 0.9;
    cur.expression[7] = 0.0;
    const auto delta = codec.encode_delta(ref, cur);
    const AvatarState d = codec.decode_delta(ref, delta);
    EXPECT_NEAR(d.expression[3], 0.9, 1.0 / 255.0);
    EXPECT_NEAR(d.expression[7], 0.0, 1.0 / 255.0);
    EXPECT_NEAR(d.expression[0], ref.expression[0], 1.0 / 255.0);
}

TEST(CodecTest, DeltaChainTracksSlowDrift) {
    const AvatarCodec codec;
    AvatarState truth = sample_state();
    AvatarState receiver_ref = codec.decode_full(codec.encode_full(truth));
    AvatarState sender_ref = receiver_ref;
    for (int step = 0; step < 50; ++step) {
        truth.root.pose.position += math::Vec3{0.02, 0, 0.01};
        truth.body.head.position += math::Vec3{0.02, 0, 0.01};
        const auto delta = codec.encode_delta(sender_ref, truth);
        receiver_ref = codec.decode_delta(receiver_ref, delta);
        sender_ref = receiver_ref;  // sender tracks what the receiver holds
    }
    EXPECT_LT(receiver_ref.root.pose.position.distance_to(truth.root.pose.position), 0.02);
}

TEST(CodecTest, TruncatedOrMalformedBytesDecodeToNullopt) {
    const AvatarCodec codec;
    const AvatarState ref = sample_state();
    AvatarState moved = ref;
    moved.root.pose.position += math::Vec3{0.5, 0, 0};
    moved.viseme = 3;
    const auto full = codec.encode_full(ref);
    const auto delta = codec.encode_delta(ref, moved);
    for (std::size_t n = 0; n < full.size(); ++n)
        EXPECT_FALSE(codec.try_decode_full({full.data(), n}).has_value()) << "full cut " << n;
    for (std::size_t n = 0; n < delta.size(); ++n)
        EXPECT_FALSE(codec.try_decode_delta(ref, {delta.data(), n}).has_value())
            << "delta cut " << n;
    // A smallest-three quaternion names its dropped component 0..3.
    auto bad_quat = full;
    bad_quat[4 + 8 + 6] = 4;
    EXPECT_FALSE(codec.try_decode_full(bad_quat).has_value());
    EXPECT_TRUE(codec.try_decode_full(full).has_value());
    EXPECT_THROW((void)codec.decode_full({full.data(), 3}), std::out_of_range);
}

TEST(ReplicaTest, TruncatedUpdatesAreDroppedAndCountedNotThrown) {
    const AvatarCodec codec;
    sync::AvatarReplica replica{codec};
    const AvatarState s = sample_state();
    const auto full = codec.encode_full(s);
    const std::uint64_t empty_digest = replica.state_digest();

    EXPECT_NO_THROW(replica.ingest({full.data(), 10}, true, sim::Time::ms(1)));
    EXPECT_EQ(replica.dropped_malformed(), 1u);
    EXPECT_EQ(replica.decoded(), 0u);
    EXPECT_FALSE(replica.latest().has_value());
    // What the network delivered is not part of the reconstruction.
    EXPECT_EQ(replica.state_digest(), empty_digest);

    replica.ingest(full, true, sim::Time::ms(2));
    ASSERT_EQ(replica.decoded(), 1u);
    const std::uint64_t digest = replica.state_digest();
    AvatarState moved = s;
    moved.root.pose.position += math::Vec3{0.5, 0, 0};
    const auto delta = codec.encode_delta(s, moved);
    EXPECT_NO_THROW(replica.ingest({delta.data(), 3}, false, sim::Time::ms(3)));
    EXPECT_EQ(replica.dropped_malformed(), 2u);
    EXPECT_EQ(replica.decoded(), 1u);
    EXPECT_EQ(replica.state_digest(), digest);
    EXPECT_EQ(replica.latest()->root.pose.position.x,
              codec.decode_full(full).root.pose.position.x);
}

// ----------------------------------------------------------------------- LOD

TEST(LodTest, LadderMonotoneInTriangles) {
    for (std::size_t i = 1; i < kLodCount; ++i) {
        EXPECT_LT(kLodLadder[i].triangles, kLodLadder[i - 1].triangles);
        EXPECT_LE(kLodLadder[i].update_rate_hz, kLodLadder[i - 1].update_rate_hz);
    }
}

TEST(LodTest, DistanceBandsMonotone) {
    EXPECT_EQ(lod_for_distance(1.0), LodLevel::Sophisticated);
    EXPECT_EQ(lod_for_distance(3.0), LodLevel::High);
    EXPECT_EQ(lod_for_distance(8.0), LodLevel::Medium);
    EXPECT_EQ(lod_for_distance(20.0), LodLevel::Low);
    EXPECT_EQ(lod_for_distance(100.0), LodLevel::Billboard);
    double prev = 0.0;
    for (const double d : {1.0, 3.0, 8.0, 20.0, 100.0}) {
        const auto lvl = static_cast<double>(lod_for_distance(d));
        EXPECT_GE(lvl, prev);
        prev = lvl;
    }
}

TEST(LodTest, CoarserSaturatesAtBillboard) {
    EXPECT_EQ(coarser(LodLevel::Sophisticated), LodLevel::High);
    EXPECT_EQ(coarser(LodLevel::Billboard), LodLevel::Billboard);
}

TEST(LodTest, ProfileLookupMatchesLadder) {
    EXPECT_EQ(lod_profile(LodLevel::High).triangles, 20'000u);
    EXPECT_EQ(lod_profile(LodLevel::Billboard).triangles, 2u);
}

}  // namespace
}  // namespace mvc::avatar
