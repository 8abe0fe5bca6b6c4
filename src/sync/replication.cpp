#include "sync/replication.hpp"

#include <stdexcept>
#include <utility>

#include "common/hash.hpp"

namespace mvc::sync {

AvatarPublisher::AvatarPublisher(sim::Clock& clock, const avatar::AvatarCodec& codec,
                                 ReplicationParams params, SinkFn sink)
    : sim_(clock), codec_(codec), params_(params), sink_(std::move(sink)) {
    if (params_.tick_rate_hz <= 0.0)
        throw std::invalid_argument("AvatarPublisher: tick rate must be positive");
    if (!sink_) throw std::invalid_argument("AvatarPublisher: null sink");
}

void AvatarPublisher::set_state(const avatar::AvatarState& state) {
    current_ = state;
    have_state_ = true;
}

void AvatarPublisher::start() {
    if (running_) return;
    running_ = true;
    task_ = sim_.schedule_every(sim::Time::seconds(1.0 / effective_rate_hz()),
                                [this] { tick(); });
}

void AvatarPublisher::stop() {
    if (!running_) return;
    running_ = false;
    sim_.cancel(task_);
}

void AvatarPublisher::set_rate_scale(double scale) {
    if (scale <= 0.0)
        throw std::invalid_argument("AvatarPublisher: rate scale must be positive");
    if (scale == rate_scale_) return;
    rate_scale_ = scale;
    if (running_) {  // re-arm the periodic task at the new cadence
        sim_.cancel(task_);
        task_ = sim_.schedule_every(sim::Time::seconds(1.0 / effective_rate_hz()),
                                    [this] { tick(); });
    }
}

void AvatarPublisher::set_threshold_scale(double scale) {
    if (scale <= 0.0)
        throw std::invalid_argument("AvatarPublisher: threshold scale must be positive");
    threshold_scale_ = scale;
}

void AvatarPublisher::tick() {
    if (provider_) {
        auto fresh = provider_();
        if (fresh.has_value()) {
            current_ = std::move(*fresh);
            have_state_ = true;
        }
    }
    if (!have_state_) return;

    const bool keyframe_time =
        !sent_anything_ ||
        sim_.now() - last_keyframe_at_ >= params_.keyframe_interval;
    if (keyframe_due_ || keyframe_time) {
        scratch_.clear();
        codec_.encode_full(current_, scratch_);
        bytes_sent_ += scratch_.size();
        ++sent_keyframes_;
        last_sent_ = current_;
        last_sent_at_ = sim_.now();
        last_keyframe_at_ = sim_.now();
        sent_anything_ = true;
        keyframe_due_ = false;
        sink_(scratch_, true, current_.captured_at);
        return;
    }

    // Receiver-view prediction: what the other side shows right now if it
    // dead-reckons from the last update we sent.
    const double dt = (sim_.now() - last_sent_at_).to_seconds();
    const avatar::AvatarState predicted = avatar::extrapolate(last_sent_, dt);
    const double err = avatar::avatar_error(predicted, current_);
    const double threshold = params_.error_threshold * threshold_scale_;
    if (threshold > 0.0 && err <= threshold) {
        ++suppressed_;
        return;
    }

    scratch_.clear();
    codec_.encode_delta(last_sent_, current_, scratch_);
    bytes_sent_ += scratch_.size();
    ++sent_updates_;
    last_sent_ = current_;
    last_sent_at_ = sim_.now();
    sink_(scratch_, false, current_.captured_at);
}

AvatarReplica::AvatarReplica(const avatar::AvatarCodec& codec, JitterBufferParams jitter)
    : codec_(codec), buffer_(jitter) {}

void AvatarReplica::ingest(std::span<const std::uint8_t> bytes, bool keyframe,
                           sim::Time arrival) {
    if (!keyframe && !have_reference_) {
        ++dropped_waiting_keyframe_;
        return;
    }
    std::optional<avatar::AvatarState> state =
        keyframe ? codec_.try_decode_full(bytes) : codec_.try_decode_delta(reference_, bytes);
    if (!state) {
        ++dropped_malformed_;
        return;
    }
    reference_ = std::move(*state);
    have_reference_ = true;
    ++decoded_;
    buffer_.push(reference_, arrival);
}

std::optional<avatar::AvatarState> AvatarReplica::display(sim::Time now) const {
    return buffer_.sample(now);
}

std::uint64_t AvatarReplica::state_digest() const {
    common::Hash64 h;
    h.u64(decoded_).u64(dropped_waiting_keyframe_).boolean(have_reference_);
    if (have_reference_) {
        h.u32(reference_.participant.value());
        h.i64(reference_.captured_at.nanos());
        const math::Pose& p = reference_.root.pose;
        h.f64(p.position.x).f64(p.position.y).f64(p.position.z);
        h.f64(p.orientation.w).f64(p.orientation.x).f64(p.orientation.y).f64(p.orientation.z);
        const math::Vec3& v = reference_.root.linear_velocity;
        h.f64(v.x).f64(v.y).f64(v.z);
        h.u8(reference_.viseme);
    }
    return h.digest();
}

std::optional<avatar::AvatarState> AvatarReplica::latest() const {
    if (!have_reference_) return std::nullopt;
    return reference_;
}

}  // namespace mvc::sync
