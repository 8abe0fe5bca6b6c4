#pragma once
// Shared retry backoff policy: exponential growth with decorrelated jitter.
//
// Plain exponential backoff synchronizes every client that observed the same
// outage — they all retry at t+1s, t+2s, t+4s and stampede the recovering
// peer together. The decorrelated-jitter variant draws each delay uniformly
// from [base, prev * 3] (capped), so retry times spread out while still
// growing geometrically in expectation. Deterministic: delays come from the
// sim::Rng stream the owner passes in, so a reconnect storm replays
// bit-identically under a fixed seed.

#include <algorithm>
#include <cstdint>
#include <utility>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mvc::net {

struct BackoffParams {
    /// First delay, and the lower bound of every jittered draw.
    sim::Time base{sim::Time::ms(200)};
    /// Upper bound for any delay.
    sim::Time cap{sim::Time::seconds(10.0)};
    /// Growth factor: next delay is drawn from [base, prev * multiplier].
    double multiplier{3.0};
};

/// One retry sequence. next() yields the delay before the upcoming attempt;
/// reset() on success returns the sequence to `base`.
class Backoff {
public:
    Backoff(BackoffParams params, sim::Rng rng)
        : params_(params), rng_(std::move(rng)) {}

    /// Delay before the next attempt: min(cap, uniform(base, prev * mult)),
    /// starting from `base` on the first call after construction/reset.
    [[nodiscard]] sim::Time next() {
        ++attempts_;
        if (prev_ < params_.base) {
            prev_ = params_.base;
            return prev_;
        }
        const double lo = params_.base.to_seconds();
        const double hi = std::max(lo, prev_.to_seconds() * params_.multiplier);
        const double drawn = lo < hi ? rng_.uniform(lo, hi) : lo;
        prev_ = std::min(params_.cap, sim::Time::seconds(drawn));
        return prev_;
    }

    /// Successful attempt: start the next sequence from `base` again.
    void reset() {
        prev_ = sim::Time::zero();
        attempts_ = 0;
    }

    /// Attempts started since the last reset().
    [[nodiscard]] int attempts() const { return attempts_; }

private:
    BackoffParams params_;
    sim::Rng rng_;
    sim::Time prev_{};
    int attempts_{0};
};

}  // namespace mvc::net
