#include "sensing/headset.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mvc::sensing {

HeadsetParams standalone_hmd_params() {
    return HeadsetParams{72.0, 0.002, 0.002, 0.01, 16, 0.02};
}

HeadsetParams tethered_mr_params() {
    return HeadsetParams{90.0, 0.001, 0.001, 0.005, 32, 0.01};
}

HeadsetParams phone_viewer_params() {
    return HeadsetParams{30.0, 0.006, 0.006, 0.03, 0, 0.0};
}

Headset::Headset(sim::Simulator& sim, std::string name, ParticipantId wearer,
                 HeadsetParams params, TruthFn truth, EmitFn emit)
    : sim_(sim),
      name_(std::move(name)),
      wearer_(wearer),
      params_(params),
      truth_(std::move(truth)),
      emit_(std::move(emit)),
      rng_(sim.rng_stream("headset/" + name_)) {
    if (params_.sample_rate_hz <= 0.0)
        throw std::invalid_argument("Headset: sample rate must be positive");
    if (params_.expression_channels > kMaxExpressionChannels)
        throw std::invalid_argument("Headset: more expression channels than a sample holds");
    if (!truth_ || !emit_) throw std::invalid_argument("Headset: null callbacks");
}

void Headset::start() {
    if (running_) return;
    running_ = true;
    task_ = sim_.schedule_every(sim::Time::seconds(1.0 / params_.sample_rate_hz),
                                [this] { sample_once(); });
}

void Headset::stop() {
    if (!running_) return;
    running_ = false;
    sim_.cancel(task_);
}

void Headset::sample_once() {
    if (rng_.chance(params_.dropout)) {
        ++dropped_;
        return;
    }
    const GroundTruth gt = truth_();

    SensorSample s;
    s.participant = wearer_;
    s.captured_at = sim_.now();
    s.source = SensorSource::Headset;
    s.has_orientation = true;

    const auto& pose = gt.kinematics.pose;
    s.pose.position = pose.position + math::Vec3{rng_.normal(0.0, params_.position_noise_m),
                                                 rng_.normal(0.0, params_.position_noise_m),
                                                 rng_.normal(0.0, params_.position_noise_m)};
    // Orientation noise: small random-axis perturbation.
    const math::Vec3 axis{rng_.normal(0.0, 1.0), rng_.normal(0.0, 1.0),
                          rng_.normal(0.0, 1.0)};
    const double wobble = rng_.normal(0.0, params_.orientation_noise_rad);
    s.pose.orientation =
        (math::Quat::from_axis_angle(axis, wobble) * pose.orientation).normalized();

    for (std::size_t i = 0; i < params_.expression_channels; ++i) {
        const double truth_coeff = i < gt.expression.size() ? gt.expression[i] : 0.0;
        s.expression.push_back(
            std::clamp(truth_coeff + rng_.normal(0.0, params_.expression_noise), 0.0, 1.0));
    }

    ++emitted_;
    emit_(std::move(s));
}

}  // namespace mvc::sensing
