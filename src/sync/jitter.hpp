#pragma once
// Receiver-side jitter buffer for avatar streams. Network jitter makes
// update spacing irregular; rendering directly from the freshest update
// produces visible stutter. The buffer delays playout by an adaptive amount
// (EWMA jitter * margin), then serves interpolated states at
// now - playout_delay, extrapolating when the buffer runs dry.
//
// The history is a ring of states sorted by capture time. Its capacity
// follows the depth: it steps up (x1.5 or x1.33) when full and halves when a
// prune leaves it under a third full, so a stream at a steady rate pushes
// and prunes without allocating (DESIGN §9.5).

#include <optional>
#include <vector>

#include "avatar/state.hpp"

namespace mvc::sync {

struct JitterBufferParams {
    sim::Time min_delay{sim::Time::ms(10)};
    sim::Time max_delay{sim::Time::ms(150)};
    /// Playout delay = margin * jitter estimate (clamped to [min, max]).
    double margin{4.0};
    /// Buffered history horizon; states older than this are pruned.
    sim::Time history{sim::Time::seconds(2.0)};
    /// Max extrapolation when the buffer underruns.
    sim::Time max_extrapolation{sim::Time::ms(100)};
};

class JitterBuffer {
public:
    explicit JitterBuffer(JitterBufferParams params = {});

    /// Insert a decoded avatar state (capture-timestamped at the source)
    /// that arrived at `arrival` local time.
    void push(avatar::AvatarState state, sim::Time arrival);

    /// State to display at local time `now`: interpolated at the playout
    /// point, extrapolated on underrun (bounded), nullopt before any data.
    [[nodiscard]] std::optional<avatar::AvatarState> sample(sim::Time now) const;

    [[nodiscard]] sim::Time playout_delay() const;
    [[nodiscard]] std::size_t depth() const { return count_; }
    [[nodiscard]] std::uint64_t underruns() const { return underruns_; }

private:
    JitterBufferParams params_;
    std::vector<avatar::AvatarState> ring_;  // slots; the first live one is head_
    std::size_t head_{0};
    std::size_t count_{0};                   // live states, sorted by capture time
    double jitter_ms_{0.0};
    bool have_transit_{false};
    double smoothed_transit_ms_{0.0};
    mutable std::uint64_t underruns_{0};

    /// Ring slot of the i-th buffered state, oldest first.
    [[nodiscard]] std::size_t slot(std::size_t i) const;
    /// Move the live states, oldest first, into a ring of `capacity` slots.
    void reallocate(std::size_t capacity);
    void prune(sim::Time now);
};

}  // namespace mvc::sync
