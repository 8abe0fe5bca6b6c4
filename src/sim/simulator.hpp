#pragma once
// Discrete-event simulation core. Single-threaded, deterministic: events at
// equal timestamps fire in scheduling order (FIFO via a sequence number).
// Everything in the classroom — sensors, links, servers, renderers — runs as
// callbacks on one Simulator instance.
//
// The Simulator is a virtual clock over sim::TimerQueue: it advances now()
// to each event's deadline and re-arms periodic timers at now() + period.
// The steady-state loop is allocation-free: callbacks are EventFns (64-byte
// small-buffer, pool-backed fallback) held in the queue's slots, and pop
// order depends only on the (time, seq) total order.

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "sim/clock.hpp"
#include "sim/event_fn.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/timer_queue.hpp"

namespace mvc::sim {

class Simulator : public Clock {
public:
    /// `seed` roots every Rng stream created through `rng_stream`.
    explicit Simulator(std::uint64_t seed = 1);

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    [[nodiscard]] Time now() const override { return now_; }
    [[nodiscard]] std::uint64_t seed() const { return seed_; }

    /// Independent deterministic RNG stream for a named model. Pure function
    /// of (seed(), name): calling this in any order, any number of times,
    /// consumes no randomness and never perturbs other streams — two calls
    /// with the same name return identical streams. Draw order *within* the
    /// returned stream must be stable for reproducible runs; see the
    /// determinism contract at the top of sim/rng.hpp.
    [[nodiscard]] Rng rng_stream(std::string_view name) const override;

    /// One-shot scheduling primitive beneath Clock's schedule_at /
    /// schedule_after templates. `at` must be >= now().
    EventHandle schedule_at_erased(Time at, EventFn fn) override {
        if (at < now_) throw std::invalid_argument("schedule_at: time in the past");
        return queue_.arm(at, std::move(fn));
    }
    /// Schedule `fn` every `period`, first firing at now() + `phase`
    /// (defaults to one full period). Returns a handle cancelling the
    /// whole periodic chain; the chain keeps one queue slot for its life.
    EventHandle schedule_every(Time period, std::function<void()> fn) override;
    EventHandle schedule_every(Time period, Time phase,
                               std::function<void()> fn) override;

    /// Cancel a pending event; safe on fired/invalid handles.
    void cancel(EventHandle h) override { queue_.cancel(h); }

    /// Run the events due at or before `until`, then advance the clock to
    /// `until`. Returns the number of events executed. Events scheduled
    /// exactly at `until` run; nothing later does.
    std::size_t run_until(Time until);
    /// Run until the queue is fully drained (use only with finite models).
    std::size_t run_all();
    /// Execute the single next event, if any; returns whether one ran.
    bool step() { return run_next(Time::max()); }

    /// Queue entries, cancelled ones not yet dropped included.
    [[nodiscard]] std::size_t pending_events() const { return queue_.entries(); }
    [[nodiscard]] std::size_t executed_events() const { return executed_; }
    /// Cancelled entries still queued. Bounded by the cancelled events whose
    /// deadline has not yet been reached; exposed so tests can assert long
    /// runs don't accumulate bookkeeping.
    [[nodiscard]] std::size_t cancelled_backlog() const {
        return queue_.entries() - queue_.live();
    }
    /// Free-list pool backing oversized event captures; exposed for the
    /// hot-path benchmark and pool-reuse tests.
    [[nodiscard]] const EventPool& event_pool() const { return queue_.pool(); }

protected:
    [[nodiscard]] EventPool* timer_pool() override { return &queue_.pool(); }

private:
    /// Run the next event if it is due at or before `limit`.
    bool run_next(Time limit);

    Time now_{};
    std::uint64_t seed_;
    std::size_t executed_{0};
    TimerQueue queue_;
};

}  // namespace mvc::sim
