#include "net/link.hpp"

#include <algorithm>
#include <utility>

namespace mvc::net {

Link::Link(sim::Clock& clock, std::string name, LinkParams params)
    : sim_(clock),
      name_(std::move(name)),
      params_(params),
      rng_(clock.rng_stream("link/" + name_)) {}

sim::Time Link::tx_time(std::size_t bytes) const {
    if (params_.bandwidth_bps <= 0.0) return sim::Time::zero();
    const double seconds =
        static_cast<double>(bytes) * 8.0 / params_.bandwidth_bps;
    return sim::Time::seconds(seconds);
}

sim::Time Link::draw_jitter() {
    sim::Time j = sim::Time::zero();
    if (params_.jitter > sim::Time::zero()) {
        const double ms = rng_.normal(0.0, params_.jitter.to_ms());
        j += sim::Time::ms(std::max(0.0, ms));
    }
    if (params_.spike_probability > 0.0 && rng_.chance(params_.spike_probability)) {
        // Pareto(alpha=1.5) scaled spike: occasional cross-traffic burst.
        const double spike = rng_.pareto(1.0, 1.5) * params_.spike_scale.to_ms();
        // Cap at 20x scale to keep tails finite.
        j += sim::Time::ms(std::min(spike, 20.0 * params_.spike_scale.to_ms()));
    }
    return j;
}

std::size_t Link::backlog_bytes() const {
    if (params_.bandwidth_bps <= 0.0 || busy_until_ <= sim_.now()) return 0;
    const double backlog_seconds = (busy_until_ - sim_.now()).to_seconds();
    return static_cast<std::size_t>(backlog_seconds * params_.bandwidth_bps / 8.0);
}

LinkAdmission Link::admit(std::size_t wire_bytes) {
    if (!up_) {
        ++dropped_down_;
        return {};
    }
    // The queue models serialization backlog; an infinite-bandwidth link
    // never queues, so nothing can overflow.
    if (params_.bandwidth_bps > 0.0 &&
        backlog_bytes() + wire_bytes > params_.queue_bytes) {
        ++dropped_queue_;
        return {};
    }
    bytes_sent_ += wire_bytes;
    const sim::Time start = std::max(sim_.now(), busy_until_);
    const sim::Time departure = start + tx_time(wire_bytes);
    busy_until_ = departure;

    if (rng_.chance(params_.loss)) {
        ++lost_;
        return {LinkAdmission::Status::Lost, {}};  // accepted, lost in flight
    }

    const sim::Time arrival = departure + params_.latency + draw_jitter();
    return {LinkAdmission::Status::Accepted, arrival};
}

}  // namespace mvc::net
