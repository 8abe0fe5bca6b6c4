#include "sim/simulator.hpp"

#include <ostream>
#include <stdexcept>

namespace mvc::sim {

std::ostream& operator<<(std::ostream& os, Time t) { return os << t.to_ms() << "ms"; }

Simulator::Simulator(std::uint64_t seed) : seed_(seed) {}

Rng Simulator::rng_stream(std::string_view name) const {
    return Rng{derive_seed(seed_, name)};
}

EventHandle Simulator::schedule_every(Time period, std::function<void()> fn) {
    return schedule_every(period, period, std::move(fn));
}

EventHandle Simulator::schedule_every(Time period, Time phase, std::function<void()> fn) {
    if (period <= Time::zero())
        throw std::invalid_argument("schedule_every: period must be positive");
    return queue_.arm(now_ + phase, EventFn(std::move(fn), &queue_.pool()), period);
}

bool Simulator::run_next(Time limit) {
    const std::optional<Time> due = queue_.next_due(limit);
    if (!due) return false;
    // now() and the executed count are updated before the callback runs:
    // callbacks (the recorder's state hash among them) read both.
    now_ = *due;
    ++executed_;
    queue_.fire_head([this](Time, Time period) { return now_ + period; });
    return true;
}

std::size_t Simulator::run_until(Time until) {
    std::size_t n = 0;
    while (run_next(until)) ++n;
    // Advance the clock to the horizon so back-to-back run_until calls see
    // monotonic time even across empty stretches.
    if (now_ < until) now_ = until;
    return n;
}

std::size_t Simulator::run_all() {
    std::size_t n = 0;
    while (step()) ++n;
    return n;
}

}  // namespace mvc::sim
