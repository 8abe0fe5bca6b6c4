#pragma once
// Wall-clock implementation of sim::Clock for the real-transport backend.
// now() is nanoseconds of std::chrono::steady_clock elapsed since
// construction (so timestamps start near zero, like a simulation run), and
// timers sit in a sim::TimerQueue that the owning event loop drains: poll
// the sockets with a timeout derived from next_deadline(), then call
// run_due() to fire everything whose instant has passed.
//
// Unlike the simulator there is no event queue driving time forward — time
// passes on its own — so scheduling into the past is legal (the timer fires
// on the next run_due()) and periodic timers re-arm relative to now() when
// the loop falls behind, instead of bursting to catch up.
//
// Single-threaded by design, exactly like the Simulator: one thread owns the
// clock, its sockets, and every timer callback.

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "sim/clock.hpp"
#include "sim/timer_queue.hpp"

namespace mvc::sim {

class WallClock final : public Clock {
public:
    /// `seed` roots rng_stream, mirroring Simulator(seed): a model built on
    /// the real backend with the same seed draws identical named streams.
    explicit WallClock(std::uint64_t seed = 1);

    WallClock(const WallClock&) = delete;
    WallClock& operator=(const WallClock&) = delete;

    [[nodiscard]] Time now() const override;
    [[nodiscard]] std::uint64_t seed() const { return seed_; }
    [[nodiscard]] Rng rng_stream(std::string_view name) const override;

    EventHandle schedule_at_erased(Time at, EventFn fn) override;
    EventHandle schedule_every(Time period, std::function<void()> fn) override;
    EventHandle schedule_every(Time period, Time phase,
                               std::function<void()> fn) override;
    void cancel(EventHandle h) override { queue_.cancel(h); }

    /// Earliest pending deadline; nullopt when no timers are armed. The
    /// event loop turns this into its poll timeout.
    [[nodiscard]] std::optional<Time> next_deadline() { return queue_.next_due(Time::max()); }

    /// Fire every timer whose deadline is <= now(), in deadline order
    /// (FIFO among equal deadlines). Returns how many fired. Callbacks may
    /// schedule and cancel freely, including cancelling their own periodic
    /// chain.
    std::size_t run_due();

    [[nodiscard]] std::size_t pending_timers() const { return queue_.live(); }
    [[nodiscard]] std::uint64_t fired() const { return fired_; }

protected:
    [[nodiscard]] EventPool* timer_pool() override { return &queue_.pool(); }

private:
    std::uint64_t seed_;
    std::chrono::steady_clock::time_point epoch_;
    TimerQueue queue_;
    std::uint64_t fired_{0};
};

}  // namespace mvc::sim
