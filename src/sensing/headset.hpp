#pragma once
// MR/VR headset tracking model. Substitutes real HMD hardware: samples a
// ground-truth provider at the device tracking rate, corrupts it with
// calibrated noise, and occasionally drops samples (tracking loss). The
// downstream pipeline only ever sees the emitted SensorSamples, so fidelity
// to real hardware is a matter of the rate/noise/dropout statistics, which
// are configurable per device class.

#include <functional>
#include <string>

#include "sensing/sample.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace mvc::sensing {

struct HeadsetParams {
    double sample_rate_hz{60.0};
    /// 1-sigma positional noise per axis (metres). Inside-out trackers sit
    /// around 1-3 mm under good lighting.
    double position_noise_m{0.002};
    /// 1-sigma orientation noise (radians, ~0.1 deg for modern HMDs).
    double orientation_noise_rad{0.002};
    /// Probability a sample is lost (tracking hiccup, camera blur).
    double dropout{0.01};
    /// Number of facial blendshape channels captured (0 = no face tracking,
    /// at most kMaxExpressionChannels).
    std::size_t expression_channels{16};
    /// 1-sigma noise on each blendshape coefficient.
    double expression_noise{0.02};
};

/// Preset device classes used across experiments.
[[nodiscard]] HeadsetParams standalone_hmd_params();   // Quest-class
[[nodiscard]] HeadsetParams tethered_mr_params();      // HoloLens/Varjo-class
[[nodiscard]] HeadsetParams phone_viewer_params();     // phone-in-shell viewer

class Headset {
public:
    using TruthFn = std::function<GroundTruth()>;
    using EmitFn = std::function<void(SensorSample&&)>;

    /// `name` keys the deterministic RNG stream; `truth` supplies the
    /// wearer's ground-truth state; `emit` receives each surviving sample.
    Headset(sim::Simulator& sim, std::string name, ParticipantId wearer,
            HeadsetParams params, TruthFn truth, EmitFn emit);

    /// Begin periodic sampling (first sample one period from now).
    void start();
    void stop();

    [[nodiscard]] const HeadsetParams& params() const { return params_; }
    [[nodiscard]] ParticipantId wearer() const { return wearer_; }
    [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

private:
    sim::Simulator& sim_;
    std::string name_;
    ParticipantId wearer_;
    HeadsetParams params_;
    TruthFn truth_;
    EmitFn emit_;
    sim::Rng rng_;
    sim::EventHandle task_;
    bool running_{false};
    std::uint64_t emitted_{0};
    std::uint64_t dropped_{0};

    void sample_once();
};

}  // namespace mvc::sensing
