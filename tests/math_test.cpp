// Unit + property tests for the math substrate: vectors, quaternions, poses,
// dead reckoning, and the statistics toolkit.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "math/pose.hpp"
#include "math/quat.hpp"
#include "math/stats.hpp"
#include "math/vec3.hpp"

namespace mvc::math {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Vec3Test, DefaultIsZero) {
    const Vec3 v;
    EXPECT_EQ(v, Vec3::zero());
    EXPECT_DOUBLE_EQ(v.norm(), 0.0);
}

TEST(Vec3Test, ArithmeticBasics) {
    const Vec3 a{1, 2, 3};
    const Vec3 b{-4, 5, 0.5};
    EXPECT_EQ(a + b, Vec3(-3, 7, 3.5));
    EXPECT_EQ(a - b, Vec3(5, -3, 2.5));
    EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
    EXPECT_EQ(2.0 * a, a * 2.0);
    EXPECT_EQ(a / 2.0, Vec3(0.5, 1, 1.5));
    EXPECT_EQ(-a, Vec3(-1, -2, -3));
}

TEST(Vec3Test, DotAndCross) {
    const Vec3 x = Vec3::unit_x();
    const Vec3 y = Vec3::unit_y();
    EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
    EXPECT_EQ(x.cross(y), Vec3::unit_z());
    EXPECT_EQ(y.cross(x), -Vec3::unit_z());
    const Vec3 a{1, 2, 3};
    EXPECT_DOUBLE_EQ(a.dot(a), a.norm_sq());
}

TEST(Vec3Test, NormalizedHasUnitLength) {
    const Vec3 a{3, -4, 12};
    EXPECT_NEAR(a.normalized().norm(), 1.0, 1e-12);
    EXPECT_EQ(Vec3::zero().normalized(), Vec3::zero());
}

TEST(Vec3Test, DistanceIsSymmetric) {
    const Vec3 a{1, 1, 1};
    const Vec3 b{4, 5, 1};
    EXPECT_DOUBLE_EQ(a.distance_to(b), 5.0);
    EXPECT_DOUBLE_EQ(b.distance_to(a), 5.0);
}

TEST(Vec3Test, LerpEndpointsAndMidpoint) {
    const Vec3 a{0, 0, 0};
    const Vec3 b{2, 4, 6};
    EXPECT_EQ(lerp(a, b, 0.0), a);
    EXPECT_EQ(lerp(a, b, 1.0), b);
    EXPECT_EQ(lerp(a, b, 0.5), Vec3(1, 2, 3));
}

TEST(QuatTest, IdentityRotatesNothing) {
    const Vec3 v{1, 2, 3};
    EXPECT_TRUE(approx_equal(Quat::identity().rotate(v), v));
}

TEST(QuatTest, AxisAngleQuarterTurn) {
    const Quat q = Quat::from_axis_angle(Vec3::unit_y(), kPi / 2.0);
    const Vec3 r = q.rotate(Vec3::unit_x());
    EXPECT_TRUE(approx_equal(r, -Vec3::unit_z(), 1e-9))
        << r.x << "," << r.y << "," << r.z;
}

TEST(QuatTest, RotationPreservesLength) {
    std::mt19937 gen{11};
    std::uniform_real_distribution<double> d{-1.0, 1.0};
    for (int i = 0; i < 100; ++i) {
        const Quat q = Quat::from_axis_angle({d(gen), d(gen), d(gen)}, d(gen) * kPi);
        const Vec3 v{d(gen) * 10, d(gen) * 10, d(gen) * 10};
        EXPECT_NEAR(q.rotate(v).norm(), v.norm(), 1e-9);
    }
}

TEST(QuatTest, ComposeMatchesSequentialRotation) {
    std::mt19937 gen{12};
    std::uniform_real_distribution<double> d{-1.0, 1.0};
    for (int i = 0; i < 100; ++i) {
        const Quat a = Quat::from_axis_angle({d(gen), d(gen), d(gen)}, d(gen) * kPi);
        const Quat b = Quat::from_axis_angle({d(gen), d(gen), d(gen)}, d(gen) * kPi);
        const Vec3 v{d(gen), d(gen), d(gen)};
        EXPECT_TRUE(approx_equal((a * b).rotate(v), a.rotate(b.rotate(v)), 1e-9));
    }
}

TEST(QuatTest, InverseUndoesRotation) {
    const Quat q = Quat::from_yaw_pitch_roll(0.3, -0.7, 1.1);
    const Vec3 v{2, -3, 5};
    EXPECT_TRUE(approx_equal(q.inverse().rotate(q.rotate(v)), v, 1e-9));
}

TEST(QuatTest, AngleOfAxisAngleRoundTrips) {
    for (const double angle : {0.1, 0.5, 1.0, 2.0, 3.0}) {
        const Quat q = Quat::from_axis_angle(Vec3::unit_z(), angle);
        EXPECT_NEAR(q.angle(), angle, 1e-9);
    }
}

TEST(QuatTest, AngularDistanceHandlesDoubleCover) {
    const Quat q = Quat::from_axis_angle(Vec3::unit_y(), 0.8);
    const Quat neg{-q.w, -q.x, -q.y, -q.z};
    EXPECT_NEAR(angular_distance(q, neg), 0.0, 1e-9);
}

TEST(QuatTest, YawExtraction) {
    for (const double yaw : {-2.0, -0.5, 0.0, 0.5, 2.0}) {
        const Quat q = Quat::from_axis_angle(Vec3::unit_y(), yaw);
        EXPECT_NEAR(q.yaw(), yaw, 1e-9);
    }
}

class SlerpParamTest : public ::testing::TestWithParam<double> {};

TEST_P(SlerpParamTest, StaysOnUnitSphereAndInterpolatesAngle) {
    const double t = GetParam();
    const Quat a = Quat::identity();
    const Quat b = Quat::from_axis_angle(Vec3::unit_y(), 1.6);
    const Quat s = slerp(a, b, t);
    EXPECT_NEAR(s.norm(), 1.0, 1e-12);
    EXPECT_NEAR(angular_distance(a, s), 1.6 * t, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Fractions, SlerpParamTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

TEST(SlerpTest, ShortestArcChosen) {
    const Quat a = Quat::from_axis_angle(Vec3::unit_y(), 0.1);
    const Quat b = Quat::from_axis_angle(Vec3::unit_y(), -0.1);
    // Halfway between +0.1 and -0.1 about y is identity, not the long way.
    EXPECT_NEAR(angular_distance(slerp(a, b, 0.5), Quat::identity()), 0.0, 1e-6);
}

TEST(SlerpTest, NearlyParallelFallsBackStably) {
    const Quat a = Quat::from_axis_angle(Vec3::unit_y(), 1e-8);
    const Quat b = Quat::identity();
    const Quat s = slerp(a, b, 0.5);
    EXPECT_NEAR(s.norm(), 1.0, 1e-12);
}

TEST(PoseTest, ComposeWithIdentity) {
    const Pose p{{1, 2, 3}, Quat::from_axis_angle(Vec3::unit_y(), 0.5)};
    EXPECT_TRUE(approx_equal(p.compose(Pose::identity()).position, p.position));
    EXPECT_TRUE(approx_equal(Pose::identity().compose(p).position, p.position));
}

TEST(PoseTest, ToLocalInvertsCompose) {
    std::mt19937 gen{13};
    std::uniform_real_distribution<double> d{-2.0, 2.0};
    for (int i = 0; i < 50; ++i) {
        const Pose frame{{d(gen), d(gen), d(gen)},
                         Quat::from_yaw_pitch_roll(d(gen), d(gen) / 2, d(gen) / 2)};
        const Pose local{{d(gen), d(gen), d(gen)},
                         Quat::from_yaw_pitch_roll(d(gen), 0, 0)};
        const Pose world = frame.compose(local);
        const Pose back = frame.to_local(world);
        EXPECT_TRUE(approx_equal(back.position, local.position, 1e-9));
        EXPECT_NEAR(angular_distance(back.orientation, local.orientation), 0.0, 1e-9);
    }
}

TEST(PoseTest, InterpolateEndpoints) {
    const Pose a{{0, 0, 0}, Quat::identity()};
    const Pose b{{4, 0, 0}, Quat::from_axis_angle(Vec3::unit_y(), 1.0)};
    EXPECT_TRUE(approx_equal(interpolate(a, b, 0.0).position, a.position));
    EXPECT_TRUE(approx_equal(interpolate(a, b, 1.0).position, b.position));
    EXPECT_TRUE(approx_equal(interpolate(a, b, 0.5).position, Vec3{2, 0, 0}));
}

TEST(PoseTest, PoseErrorZeroForIdentical) {
    const Pose p{{1, 2, 3}, Quat::from_axis_angle(Vec3::unit_x(), 0.4)};
    EXPECT_DOUBLE_EQ(pose_error(p, p), 0.0);
}

TEST(PoseTest, PoseErrorCombinesPositionAndAngle) {
    const Pose a{{0, 0, 0}, Quat::identity()};
    const Pose b{{1, 0, 0}, Quat::from_axis_angle(Vec3::unit_y(), 1.0)};
    EXPECT_NEAR(pose_error(a, b, 0.5), 1.0 + 0.5, 1e-9);
}

TEST(KinematicsTest, ExtrapolateLinear) {
    KinematicState k;
    k.pose.position = {1, 0, 0};
    k.linear_velocity = {2, 0, -1};
    const KinematicState next = k.extrapolate(0.5);
    EXPECT_TRUE(approx_equal(next.pose.position, Vec3{2, 0, -0.5}));
}

TEST(KinematicsTest, ExtrapolateAngular) {
    KinematicState k;
    k.angular_velocity = {0, kPi, 0};  // half-turn per second about y
    const KinematicState next = k.extrapolate(0.5);
    EXPECT_NEAR(next.pose.orientation.angle(), kPi / 2, 1e-9);
}

TEST(KinematicsTest, ZeroDtIsIdentity) {
    KinematicState k;
    k.pose.position = {5, 6, 7};
    k.linear_velocity = {1, 1, 1};
    k.angular_velocity = {0, 2, 0};
    const KinematicState same = k.extrapolate(0.0);
    EXPECT_TRUE(approx_equal(same.pose.position, k.pose.position));
    EXPECT_NEAR(angular_distance(same.pose.orientation, k.pose.orientation), 0.0, 1e-12);
}

// ----------------------------------------------------------------- statistics

TEST(RunningStatsTest, MeanVarianceMinMax) {
    RunningStats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesCombinedStream) {
    std::mt19937 gen{17};
    std::normal_distribution<double> d{3.0, 2.0};
    RunningStats a, b, all;
    for (int i = 0; i < 500; ++i) {
        const double x = d(gen);
        (i % 2 == 0 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStatsTest, MergeWithEmpty) {
    RunningStats a;
    a.add(1.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(SampleSeriesTest, ExactQuantiles) {
    SampleSeries s;
    for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.quantile(0.95), 95.05, 1e-9);
    EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(SampleSeriesTest, EmptyAndSingle) {
    SampleSeries s;
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.median(), 42.0);
    EXPECT_DOUBLE_EQ(s.p99(), 42.0);
}

TEST(SampleSeriesTest, QuantileAfterMoreSamples) {
    SampleSeries s;
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.median(), 1.0);
    s.add(3.0);  // cache must invalidate
    EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(QuantileOfTest, UnsortedInputHandled) {
    const std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(quantile_of(xs, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(quantile_of(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile_of(xs, 1.0), 5.0);
}

TEST(EwmaTest, ConvergesToConstant) {
    Ewma e{0.2};
    for (int i = 0; i < 100; ++i) e.add(7.0);
    EXPECT_NEAR(e.value(), 7.0, 1e-9);
}

TEST(EwmaTest, FirstSampleSeeds) {
    Ewma e{0.5};
    EXPECT_FALSE(e.initialized());
    e.add(10.0);
    EXPECT_TRUE(e.initialized());
    EXPECT_DOUBLE_EQ(e.value(), 10.0);
    e.add(0.0);
    EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(EwmaTest, InvalidAlphaThrows) {
    EXPECT_THROW(Ewma{0.0}, std::invalid_argument);
    EXPECT_THROW(Ewma{1.5}, std::invalid_argument);
}

}  // namespace
}  // namespace mvc::math
