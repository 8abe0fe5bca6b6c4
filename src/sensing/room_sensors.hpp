#pragma once
// Non-intrusive classroom sensor array (Figure 3: "the physical classroom is
// equipped with non-intrusive sensors that can estimate the exact pose of the
// participants"). Models a set of ceiling cameras observing every tracked
// participant at a fixed rate: position-only, noisier than headset tracking,
// and subject to per-participant occlusion stretches.

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sensing/sample.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace mvc::sensing {

struct RoomSensorParams {
    double sample_rate_hz{30.0};
    /// 1-sigma positional noise (cm-scale for multi-camera triangulation).
    double position_noise_m{0.03};
    /// Probability an unoccluded participant becomes occluded per sample.
    double occlusion_start{0.02};
    /// Probability an occluded participant becomes visible again per sample.
    double occlusion_end{0.3};
};

/// A room-camera observation: a position with no orientation and no
/// expression channels. The camera array and the wired backhaul that carries
/// its samples to the edge both build them here.
[[nodiscard]] SensorSample room_camera_sample(ParticipantId participant, sim::Time captured_at,
                                              const math::Vec3& position);

class RoomSensorArray {
public:
    using TruthFn = std::function<GroundTruth(ParticipantId)>;
    using EmitFn = std::function<void(SensorSample&&)>;

    RoomSensorArray(sim::Simulator& sim, std::string name, RoomSensorParams params,
                    TruthFn truth, EmitFn emit);

    void track(ParticipantId participant);
    void untrack(ParticipantId participant);
    [[nodiscard]] std::size_t tracked_count() const { return tracked_.size(); }

    void start();
    void stop();

    [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
    [[nodiscard]] std::uint64_t occluded_samples() const { return occluded_samples_; }
    [[nodiscard]] bool is_occluded(ParticipantId p) const;

private:
    sim::Simulator& sim_;
    std::string name_;
    RoomSensorParams params_;
    TruthFn truth_;
    EmitFn emit_;
    sim::Rng rng_;
    sim::EventHandle task_;
    bool running_{false};
    std::vector<ParticipantId> tracked_;
    std::unordered_map<ParticipantId, bool> occluded_;
    std::uint64_t emitted_{0};
    std::uint64_t occluded_samples_{0};

    void sweep();
};

}  // namespace mvc::sensing
