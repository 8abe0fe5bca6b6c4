#include "sensing/room_sensors.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mvc::sensing {

RoomSensorArray::RoomSensorArray(sim::Simulator& sim, std::string name,
                                 RoomSensorParams params, TruthFn truth, EmitFn emit)
    : sim_(sim),
      name_(std::move(name)),
      params_(params),
      truth_(std::move(truth)),
      emit_(std::move(emit)),
      rng_(sim.rng_stream("roomsensors/" + name_)) {
    if (params_.sample_rate_hz <= 0.0)
        throw std::invalid_argument("RoomSensorArray: sample rate must be positive");
    if (!truth_ || !emit_) throw std::invalid_argument("RoomSensorArray: null callbacks");
}

void RoomSensorArray::track(ParticipantId participant) {
    if (std::find(tracked_.begin(), tracked_.end(), participant) != tracked_.end()) return;
    tracked_.push_back(participant);
    occluded_[participant] = false;
}

void RoomSensorArray::untrack(ParticipantId participant) {
    std::erase(tracked_, participant);
    occluded_.erase(participant);
}

bool RoomSensorArray::is_occluded(ParticipantId p) const {
    const auto it = occluded_.find(p);
    return it != occluded_.end() && it->second;
}

void RoomSensorArray::start() {
    if (running_) return;
    running_ = true;
    task_ = sim_.schedule_every(sim::Time::seconds(1.0 / params_.sample_rate_hz),
                                [this] { sweep(); });
}

void RoomSensorArray::stop() {
    if (!running_) return;
    running_ = false;
    sim_.cancel(task_);
}

SensorSample room_camera_sample(ParticipantId participant, sim::Time captured_at,
                                const math::Vec3& position) {
    SensorSample s;
    s.participant = participant;
    s.captured_at = captured_at;
    s.source = SensorSource::RoomCamera;
    s.has_orientation = false;
    s.pose.position = position;
    return s;
}

void RoomSensorArray::sweep() {
    for (const ParticipantId p : tracked_) {
        // Two-state occlusion Markov chain: bursts of missing observations
        // rather than independent drops, matching real camera coverage gaps.
        bool& occ = occluded_[p];
        occ = occ ? !rng_.chance(params_.occlusion_end) : rng_.chance(params_.occlusion_start);
        if (occ) {
            ++occluded_samples_;
            continue;
        }
        const GroundTruth gt = truth_(p);
        const math::Vec3 noise{rng_.normal(0.0, params_.position_noise_m),
                               rng_.normal(0.0, params_.position_noise_m),
                               rng_.normal(0.0, params_.position_noise_m)};
        ++emitted_;
        emit_(room_camera_sample(p, sim_.now(), gt.kinematics.pose.position + noise));
    }
}

}  // namespace mvc::sensing
