#include "sim/timer_queue.hpp"

#include <algorithm>
#include <utility>

namespace mvc::sim {

EventHandle TimerQueue::arm(Time at, EventFn fn, Time period) {
    std::uint32_t slot = free_;
    if (slot == kNoSlot) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        free_ = slots_[slot].next_free;
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.period = period;
    push(at, slot, s.gen);
    return EventHandle{(std::uint64_t{s.gen} << 32) | (std::uint64_t{slot} + 1)};
}

void TimerQueue::cancel(EventHandle h) {
    if (!h.valid()) return;
    const auto slot = static_cast<std::uint32_t>(h.id_ - 1);
    const auto gen = static_cast<std::uint32_t>(h.id_ >> 32);
    if (slot >= slots_.size() || slots_[slot].gen != gen) return;
    Slot& s = slots_[slot];
    if (s.fn) --live_;  // queued; a running periodic timer has no entry
    // Destroyed after the slot is free: a capture's destructor may call back in.
    const EventFn dead = std::move(s.fn);
    release(slot);
}

std::optional<Time> TimerQueue::next_due(Time limit) {
    while (!heap_.empty() && heap_.front().at <= limit) {
        const Entry& top = heap_.front();
        if (slots_[top.slot].gen == top.gen) return top.at;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
    }
    return std::nullopt;
}

void TimerQueue::push(Time at, std::uint32_t slot, std::uint32_t gen) {
    heap_.push_back(Entry{at, next_seq_++, slot, gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
}

TimerQueue::Firing TimerQueue::pop_head() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry e = heap_.back();
    heap_.pop_back();
    --live_;
    Slot& s = slots_[e.slot];
    Firing f{e.at, s.period, e.slot, e.gen, std::move(s.fn)};
    if (f.period == Time::zero()) release(e.slot);
    return f;
}

void TimerQueue::rearm(Firing& f, Time at) {
    slots_[f.slot].fn = std::move(f.fn);
    push(at, f.slot, f.gen);
}

void TimerQueue::release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.gen;
    s.next_free = free_;
    free_ = slot;
}

}  // namespace mvc::sim
