#include "fault/degradation.hpp"

#include <cmath>
#include <stdexcept>

namespace mvc::fault {

DegradationPolicy::DegradationPolicy(DegradationParams params)
    : params_(params), hysteresis_(params.hold, params.hold) {
    if (params_.exit_loss > params_.enter_loss)
        throw std::invalid_argument(
            "DegradationPolicy: exit_loss must not exceed enter_loss");
    if (params_.enter_rtt_ms > 0.0 && params_.exit_rtt_ms > params_.enter_rtt_ms)
        throw std::invalid_argument(
            "DegradationPolicy: exit_rtt_ms must not exceed enter_rtt_ms");
    if (params_.max_level < 0)
        throw std::invalid_argument("DegradationPolicy: max_level must be >= 0");
}

bool DegradationPolicy::update(double loss, double rtt_ms, sim::Time now) {
    const bool rtt_enabled = params_.enter_rtt_ms > 0.0;
    const bool past_enter = loss >= params_.enter_loss ||
                            (rtt_enabled && rtt_ms >= params_.enter_rtt_ms);
    const bool past_exit = loss <= params_.exit_loss &&
                           (!rtt_enabled || rtt_ms <= params_.exit_rtt_ms);
    const auto step = hysteresis_.update(past_enter && level_ < params_.max_level,
                                         !past_enter && past_exit && level_ > 0, now);
    if (step == sim::Hysteresis::Step::none) return false;
    level_ += step == sim::Hysteresis::Step::enter ? 1 : -1;
    return true;
}

double DegradationPolicy::rate_scale() const {
    return 1.0 / static_cast<double>(std::int64_t{1} << level_);
}

double DegradationPolicy::threshold_scale() const {
    return static_cast<double>(std::int64_t{1} << level_);
}

avatar::LodLevel DegradationPolicy::lod() const {
    avatar::LodLevel lod = avatar::LodLevel::High;
    for (int i = 0; i < level_; ++i) lod = avatar::coarser(lod);
    return lod;
}

PathHealth::PathHealth(PathHealthParams params) : params_(params), rtt_(params.rtt_alpha) {
    if (params_.window <= sim::Time::zero())
        throw std::invalid_argument("PathHealth: window must be positive");
}

void PathHealth::observe(std::uint32_t source, std::uint32_t seq, double latency_ms,
                         sim::Time now) {
    roll(now);
    auto [it, inserted] = sources_.try_emplace(source);
    if (inserted) {
        // First sighting establishes the baseline: one expected, one received.
        it->second.last_seq = seq;
        ++window_expected_;
        ++window_received_;
        ++received_total_;
    } else if (seq > it->second.last_seq) {
        // A jump of k sequences means k - 1 updates never arrived.
        window_expected_ += seq - it->second.last_seq;
        ++window_received_;
        ++received_total_;
        it->second.last_seq = seq;
    }
    // seq <= last_seq: duplicate or late reorder; already accounted.
    rtt_.add(latency_ms);
}

void PathHealth::roll(sim::Time now) {
    if (window_start_ == sim::Time::max()) {
        window_start_ = now;
        return;
    }
    if (now - window_start_ < params_.window) return;
    if (window_expected_ > 0) {
        const std::uint64_t missing = window_expected_ - window_received_;
        loss_ = static_cast<double>(missing) / static_cast<double>(window_expected_);
        lost_total_ += missing;
    } else {
        // Silent window: nothing was provably expected (senders may simply
        // be suppressing), so decay toward healthy rather than inventing
        // loss. Dead-path detection is the Reconnector's job, not ours.
        loss_ = 0.0;
    }
    window_expected_ = 0;
    window_received_ = 0;
    window_start_ = now;
}

void PathHealth::reset() {
    sources_.clear();
    window_start_ = sim::Time::max();
    window_expected_ = 0;
    window_received_ = 0;
    loss_ = 0.0;
}

}  // namespace mvc::fault
