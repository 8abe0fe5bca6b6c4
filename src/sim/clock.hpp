#pragma once
// The time seam between model code and whatever drives it. Model components
// (token buckets, ARQ timers, FEC block deadlines, replication ticks) read
// time and arm timers through sim::Clock; the discrete-event Simulator and
// the wall-clock WallClock both implement it, so the same component runs
// unchanged inside a deterministic simulation or a real UDP event loop.
//
// The interface is deliberately the subset of Simulator the model layer
// actually uses: now(), one-shot and periodic scheduling, cancellation, and
// named deterministic RNG streams. Scheduling is type-erased through EventFn
// (64-byte inline small-buffer, pool-backed fallback) so the simulator's
// allocation-free hot path is preserved — the template wrappers below build
// the EventFn against the clock's own pool before crossing the virtual call.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string_view>

#include "sim/event_fn.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mvc::sim {

class TimerQueue;

/// Handle used to cancel a scheduled event. Cheap value type naming a
/// (slot, generation) pair in the issuing clock's TimerQueue; cancelling an
/// already-fired or already-cancelled event is a no-op. Only meaningful for
/// the clock that issued it.
class EventHandle {
public:
    EventHandle() = default;
    [[nodiscard]] bool valid() const { return id_ != 0; }

private:
    explicit EventHandle(std::uint64_t id) : id_(id) {}
    std::uint64_t id_{0};
    friend class TimerQueue;
};

class Clock {
public:
    virtual ~Clock() = default;

    /// Current time: simulated time on a Simulator, nanoseconds since
    /// construction on a WallClock.
    [[nodiscard]] virtual Time now() const = 0;

    /// Independent deterministic RNG stream for a named model; a pure
    /// function of (root seed, name) on every implementation, so a model
    /// seeded identically draws identical streams under either clock.
    [[nodiscard]] virtual Rng rng_stream(std::string_view name) const = 0;

    /// Type-erased one-shot scheduling primitive beneath the templates.
    virtual EventHandle schedule_at_erased(Time at, EventFn fn) = 0;

    /// Schedule `fn` every `period`, first firing at now() + `phase`
    /// (defaults to one full period). Returns a handle cancelling the whole
    /// periodic chain.
    virtual EventHandle schedule_every(Time period, std::function<void()> fn) = 0;
    virtual EventHandle schedule_every(Time period, Time phase,
                                       std::function<void()> fn) = 0;

    /// Cancel a pending event; safe on fired/invalid handles.
    virtual void cancel(EventHandle h) = 0;

    /// Schedule `fn` to run at absolute time `at`. The callable is captured
    /// into the event record in place (see EventFn); steady-state captures
    /// of <= 64 bytes never allocate.
    template <class F>
    EventHandle schedule_at(Time at, F&& fn) {
        return schedule_at_erased(at, EventFn(std::forward<F>(fn), timer_pool()));
    }

    /// Schedule `fn` to run `delay` after now().
    template <class F>
    EventHandle schedule_after(Time delay, F&& fn) {
        if (delay < Time::zero())
            throw std::invalid_argument("schedule_after: negative delay");
        return schedule_at_erased(now() + delay,
                                  EventFn(std::forward<F>(fn), timer_pool()));
    }

protected:
    /// Pool backing oversized captures of events scheduled through this
    /// clock; may be null (captures then fall back to operator new).
    [[nodiscard]] virtual EventPool* timer_pool() = 0;
};

}  // namespace mvc::sim
