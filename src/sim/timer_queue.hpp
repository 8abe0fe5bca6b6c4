#pragma once
// The one timer queue beneath both clocks. Simulator (virtual time) and
// WallClock (steady_clock) are thin clocks over it: they differ only in when
// they ask for the head and in the rule that re-arms a periodic timer.
//
// Callbacks live in slots; the binary heap holds only trivially copyable
// {at, seq, slot, gen} entries, ordered by the (at, seq) total order, so the
// pop order is FIFO among equal deadlines and independent of heap shape. A
// handle names a (slot, generation) pair. Cancel bumps the generation,
// destroys the callback and frees the slot at once; the heap entry goes stale
// and is dropped when it reaches the top. A periodic timer keeps its slot,
// and so its handle, across firings. Free slots form a list threaded through
// the slot vector, so memory is O(armed timers + queued entries) however long
// a run lasts, and arming and cancelling allocate nothing once both vectors
// have grown to their working size.

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/clock.hpp"
#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace mvc::sim {

class TimerQueue {
public:
    /// Arm `fn` at `at`. A positive `period` makes the timer periodic: it
    /// re-arms after each firing until cancelled.
    EventHandle arm(Time at, EventFn fn, Time period = Time::zero());

    /// Disarm the timer behind `h`; a no-op on fired, cancelled and invalid
    /// handles.
    void cancel(EventHandle h);

    /// Deadline of the earliest armed timer if it is <= `limit`, else
    /// nullopt. Stale entries at the top are dropped only while their
    /// deadline is <= `limit`.
    [[nodiscard]] std::optional<Time> next_due(Time limit);

    /// Fire the head timer that next_due() just reported. Its callback is
    /// moved out of the slot first, so it may arm and cancel freely, its own
    /// periodic timer included. A periodic timer still armed when the callback
    /// returns re-arms at `next_at(due, period)` with a fresh seq.
    template <class NextAt>
    void fire_head(NextAt&& next_at) {
        Firing f = pop_head();
        f.fn();
        if (f.period > Time::zero() && slots_[f.slot].gen == f.gen)
            rearm(f, next_at(f.at, f.period));
    }

    /// Heap entries, stale ones included.
    [[nodiscard]] std::size_t entries() const { return heap_.size(); }
    /// Armed timers with an entry in the heap (a periodic timer whose
    /// callback is running has none until it re-arms).
    [[nodiscard]] std::size_t live() const { return live_; }

    /// Free list backing oversized callback captures.
    [[nodiscard]] EventPool& pool() { return pool_; }
    [[nodiscard]] const EventPool& pool() const { return pool_; }

private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    struct Slot {
        EventFn fn;  // empty while free, and while a periodic callback runs
        Time period{};  // zero for one-shot timers
        std::uint32_t gen{0};
        std::uint32_t next_free{kNoSlot};
    };
    struct Entry {
        Time at;
        std::uint64_t seq;  // tie-break: FIFO among equal deadlines
        std::uint32_t slot;
        std::uint32_t gen;
    };
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };
    struct Firing {
        Time at;
        Time period;
        std::uint32_t slot;
        std::uint32_t gen;
        EventFn fn;
    };

    void push(Time at, std::uint32_t slot, std::uint32_t gen);
    Firing pop_head();
    void rearm(Firing& f, Time at);
    void release(std::uint32_t slot);

    // pool_ is declared first so the slots' callbacks, which may hold pool
    // blocks, are destroyed before the pool frees its list.
    EventPool pool_;
    std::vector<Slot> slots_;
    std::vector<Entry> heap_;
    std::uint32_t free_{kNoSlot};
    std::uint64_t next_seq_{1};
    std::size_t live_{0};
};

}  // namespace mvc::sim
