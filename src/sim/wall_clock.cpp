#include "sim/wall_clock.hpp"

#include <stdexcept>
#include <utility>

namespace mvc::sim {

WallClock::WallClock(std::uint64_t seed)
    : seed_(seed), epoch_(std::chrono::steady_clock::now()) {}

Time WallClock::now() const {
    const auto elapsed = std::chrono::steady_clock::now() - epoch_;
    return Time::ns(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

Rng WallClock::rng_stream(std::string_view name) const {
    return Rng{derive_seed(seed_, name)};
}

EventHandle WallClock::schedule_at_erased(Time at, EventFn fn) {
    // Deadlines in the past are legal here: wall time advanced between the
    // caller computing `at` and this call. The timer fires on the next
    // run_due().
    return queue_.arm(at, std::move(fn));
}

EventHandle WallClock::schedule_every(Time period, std::function<void()> fn) {
    return schedule_every(period, period, std::move(fn));
}

EventHandle WallClock::schedule_every(Time period, Time phase,
                                      std::function<void()> fn) {
    if (period <= Time::zero())
        throw std::invalid_argument("schedule_every: period must be positive");
    return queue_.arm(now() + phase, EventFn(std::move(fn), &queue_.pool()), period);
}

std::size_t WallClock::run_due() {
    std::size_t ran = 0;
    while (queue_.next_due(now())) {
        ++fired_;
        ++ran;
        // Re-arm relative to the original deadline while the loop keeps up;
        // skip ahead (no catch-up burst) when it fell behind.
        queue_.fire_head([this](Time due, Time period) {
            const Time n = now();
            return due + period <= n ? n + period : due + period;
        });
    }
    return ran;
}

}  // namespace mvc::sim
