#include "sync/jitter.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace mvc::sync {

namespace {
/// Fewest slots a ring holds once it has held anything.
constexpr std::size_t kMinCapacity = 4;

/// Ring capacities run 4, 6, 8, 12, 16, 24, ...: a power of two or one and a
/// half times one. Rings that grow and shrink share these few block sizes,
/// so a block one ring frees is reused by the next that grows into it.
std::size_t next_capacity(std::size_t c) {
    if (c < kMinCapacity) return kMinCapacity;
    return std::has_single_bit(c) ? c + c / 2 : c / 3 * 4;
}
}  // namespace

JitterBuffer::JitterBuffer(JitterBufferParams params) : params_(params) {}

void JitterBuffer::push(avatar::AvatarState state, sim::Time arrival) {
    // RFC 3550-style interarrival jitter: smooth |transit - smoothed_transit|.
    const double transit_ms = (arrival - state.captured_at).to_ms();
    if (have_transit_) {
        const double d = std::abs(transit_ms - smoothed_transit_ms_);
        jitter_ms_ += (d - jitter_ms_) / 16.0;
    }
    smoothed_transit_ms_ = have_transit_
                               ? smoothed_transit_ms_ + (transit_ms - smoothed_transit_ms_) / 8.0
                               : transit_ms;
    have_transit_ = true;

    // Insert sorted by capture time (arrivals may reorder): after every
    // state captured at or before this one, shifting newer ones up a slot.
    if (count_ == ring_.size()) reallocate(next_capacity(ring_.size()));
    std::size_t pos = count_;
    for (; pos > 0 && state.captured_at < ring_[slot(pos - 1)].captured_at; --pos)
        ring_[slot(pos)] = std::move(ring_[slot(pos - 1)]);
    ring_[slot(pos)] = std::move(state);
    ++count_;
    prune(arrival);
}

std::size_t JitterBuffer::slot(std::size_t i) const {
    const std::size_t s = head_ + i;
    return s < ring_.size() ? s : s - ring_.size();
}

void JitterBuffer::reallocate(std::size_t capacity) {
    std::vector<avatar::AvatarState> ring(capacity);
    for (std::size_t i = 0; i < count_; ++i) ring[i] = std::move(ring_[slot(i)]);
    ring_.swap(ring);
    head_ = 0;
}

void JitterBuffer::prune(sim::Time now) {
    while (count_ > 0 && now - ring_[head_].captured_at > params_.history) {
        head_ = slot(1);
        --count_;
    }
    // Halving (two capacity steps) leaves the ring at most two thirds full.
    if (ring_.size() >= 2 * kMinCapacity && count_ < ring_.size() / 3)
        reallocate(ring_.size() / 2);
}

sim::Time JitterBuffer::playout_delay() const {
    const sim::Time d = sim::Time::ms(params_.margin * jitter_ms_);
    return std::clamp(d, params_.min_delay, params_.max_delay);
}

std::optional<avatar::AvatarState> JitterBuffer::sample(sim::Time now) const {
    if (count_ == 0) return std::nullopt;
    // Playout point on the capture-time axis: the newest capture timestamp we
    // have seen, minus the (smoothed) transit, gives the source-time "now";
    // we render delayed by playout_delay from that.
    const sim::Time target = now - sim::Time::ms(smoothed_transit_ms_) - playout_delay();

    const avatar::AvatarState* before = nullptr;
    const avatar::AvatarState* after = nullptr;
    for (std::size_t i = 0; i < count_; ++i) {
        const avatar::AvatarState& s = ring_[slot(i)];
        if (s.captured_at <= target) {
            before = &s;
        } else {
            after = &s;
            break;
        }
    }
    if (before != nullptr && after != nullptr) {
        const double span = (after->captured_at - before->captured_at).to_seconds();
        const double t =
            span > 0.0 ? (target - before->captured_at).to_seconds() / span : 0.0;
        avatar::AvatarState out = *before;
        out.root.pose = math::interpolate(before->root.pose, after->root.pose, t);
        out.body.head = math::interpolate(before->body.head, after->body.head, t);
        out.body.left_hand = math::interpolate(before->body.left_hand, after->body.left_hand, t);
        out.body.right_hand =
            math::interpolate(before->body.right_hand, after->body.right_hand, t);
        out.captured_at = target;
        return out;
    }
    if (before != nullptr) {
        // Underrun: extrapolate from the newest state, bounded. The capture
        // timestamp stays anchored to real data (last capture + the amount
        // extrapolated) so stale displays are visible as stale — an outage
        // must not masquerade as a fresh frame.
        const sim::Time gap = target - before->captured_at;
        if (gap > sim::Time::zero()) ++underruns_;
        const double dt =
            std::min(gap, params_.max_extrapolation).to_seconds();
        avatar::AvatarState out = avatar::extrapolate(*before, std::max(0.0, dt));
        out.captured_at = before->captured_at + sim::Time::seconds(std::max(0.0, dt));
        return out;
    }
    // Target earlier than everything buffered (startup): show the oldest.
    return ring_[head_];
}

}  // namespace mvc::sync
