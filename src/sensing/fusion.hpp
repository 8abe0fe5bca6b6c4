#pragma once
// Edge-side sensor fusion (Figure 3: "the edge server ... aggregates the data
// to estimate the pose and facial expression of the participants").
//
// Per participant: a constant-velocity Kalman filter over position fed by
// both headset (precise) and room-camera (coarse, orientation-less)
// observations, an orientation tracker with angular-velocity estimation from
// consecutive headset samples, and EWMA-smoothed expression channels. The
// fused KinematicState is what gets encoded into avatar updates.

#include <optional>
#include <unordered_map>
#include <vector>

#include "sensing/sample.hpp"

namespace mvc::sensing {

struct FusionParams {
    /// Process noise: 1-sigma unmodelled acceleration (m/s^2). Humans in a
    /// classroom rarely exceed ~2 m/s^2.
    double accel_noise{2.0};
    /// Measurement noise used for headset / room-camera position updates.
    double headset_noise_m{0.002};
    double camera_noise_m{0.03};
    /// Blend factor pulling the orientation estimate toward each headset
    /// measurement (per sample).
    double orientation_alpha{0.6};
    /// EWMA factor for expression channels.
    double expression_alpha{0.4};
    /// A track not updated for this long is reported lost.
    sim::Time stale_after{sim::Time::ms(500)};
};

/// Fused, time-stamped participant state.
struct FusedTrack {
    math::KinematicState state;
    ExpressionChannels expression;
    sim::Time last_update{};
    std::uint64_t updates{0};
};

class PoseFusion {
public:
    explicit PoseFusion(FusionParams params = {});

    /// Ingest one observation (any source, any order; out-of-order samples
    /// older than the track's last update are ignored).
    void observe(const SensorSample& sample);

    /// Best estimate extrapolated to `now`; nullopt if unknown or stale.
    [[nodiscard]] std::optional<FusedTrack> estimate(ParticipantId p, sim::Time now) const;

    [[nodiscard]] std::vector<ParticipantId> tracked(sim::Time now) const;
    void drop(ParticipantId p);

private:
    struct AxisKf {  // 2-state (position, velocity) Kalman filter, one axis
        double pos{0.0};
        double vel{0.0};
        // Covariance [p_pp p_pv; p_pv p_vv]; starts wide until first update.
        double p_pp{1.0};
        double p_pv{0.0};
        double p_vv{1.0};

        void predict(double dt, double accel_noise);
        void update(double meas, double meas_noise);
    };
    struct Track {
        AxisKf x, y, z;
        math::Quat orientation{};
        math::Quat last_meas_orientation{};
        math::Vec3 angular_velocity{};
        bool have_orientation{false};
        sim::Time last_orientation_at{};
        ExpressionChannels expression;
        sim::Time last_update{};
        bool initialized{false};
        std::uint64_t updates{0};
    };

    FusionParams params_;
    std::unordered_map<ParticipantId, Track> tracks_;
};

}  // namespace mvc::sensing
