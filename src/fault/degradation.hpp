#pragma once
// Graceful degradation under sustained path adversity. A hysteresis ladder
// over an observed health signal (loss estimate, optionally RTT): when the
// signal stays at/above the enter threshold for `hold`, the sender steps one
// level down — halving the avatar update rate, coarsening the dead-reckoning
// threshold, and dropping one codec LOD — and steps back up only after the
// signal stays at/below the exit threshold for `hold`. The enter/exit gap
// plus the hold time prevent level flapping on a noisy signal; the holds are
// a sim::Hysteresis, so each further step needs its own full hold.
//
// PathHealth, the one loss/delay estimator, produces that signal from the
// traffic a path carries (avatar stream, heartbeat probes, video): per-sender
// wire sequence numbers expose genuine loss (dead-reckoning suppression
// makes receiver silence ambiguous — suppressed != lost), and the e2e
// latency of each delivered media update (probes carry none) feeds an EWMA
// delay estimate. An edge keeps one PathHealth per sending node and steps
// on the worst live one, so loss on one link is not diluted by clean ones.

#include <cstdint>
#include <map>

#include "avatar/lod.hpp"
#include "math/stats.hpp"
#include "sim/hysteresis.hpp"
#include "sim/time.hpp"

namespace mvc::fault {

struct DegradationParams {
    /// Loss at/above which the policy steps down one level after `hold`.
    double enter_loss{0.08};
    /// Loss at/below which the policy steps back up after `hold`.
    double exit_loss{0.02};
    /// RTT/delay (ms) at/above which the policy steps down after `hold`.
    /// Zero disables the delay criterion (loss-only, the historical mode).
    double enter_rtt_ms{0.0};
    /// RTT/delay (ms) the signal must return to before stepping back up.
    double exit_rtt_ms{0.0};
    /// How long the signal must stay past a threshold before acting.
    sim::Time hold{sim::Time::seconds(1.0)};
    /// Deepest level (0 = full fidelity).
    int max_level{3};
};

class DegradationPolicy {
public:
    explicit DegradationPolicy(DegradationParams params = {});

    /// Feed one loss observation at simulated time `now`; returns true when
    /// the degradation level changed (callers re-apply the scales).
    bool update(double loss, sim::Time now) { return update(loss, 0.0, now); }
    /// Combined criterion: the path is unhealthy when loss *or* delay is past
    /// its enter threshold, and healthy again only when both are back under
    /// their exit thresholds (delay ignored when enter_rtt_ms == 0).
    bool update(double loss, double rtt_ms, sim::Time now);

    [[nodiscard]] int level() const { return level_; }
    /// Multiplier for the avatar publisher tick rate (halves per level).
    [[nodiscard]] double rate_scale() const;
    /// Multiplier for the dead-reckoning error threshold (doubles per level).
    [[nodiscard]] double threshold_scale() const;
    /// Codec LOD to publish at this level (one rung coarser per level,
    /// starting from High).
    [[nodiscard]] avatar::LodLevel lod() const;

private:
    DegradationParams params_;
    int level_{0};
    sim::Hysteresis hysteresis_;
};

struct PathHealthParams {
    /// Length of one loss-measurement window; the loss estimate is the
    /// fraction of expected-but-missing sequence numbers over the last
    /// completed window.
    sim::Time window{sim::Time::seconds(1.0)};
    /// EWMA smoothing factor for the delay estimate (weight of each new
    /// sample).
    double rtt_alpha{0.125};
};

/// Receiver-side estimator of the health of one inbound path, fed by the
/// per-sender wire sequence counters and per-update e2e latency. Gaps in
/// a sender's sequence are counted as losses; duplicates and reorders past
/// an already-seen sequence are ignored (they were either counted missing
/// already or are chaos duplicates, and neither should push loss negative).
class PathHealth {
public:
    explicit PathHealth(PathHealthParams params = {});

    /// Record one delivered update from `source` carrying wire sequence
    /// `seq`, delivered with end-to-end latency `latency_ms`. Rolls the loss
    /// window as a side effect when `now` has moved past it.
    void observe(std::uint32_t source, std::uint32_t seq, double latency_ms,
                 sim::Time now);
    /// Same, for an arrival with no latency sample (a heartbeat probe).
    void observe(std::uint32_t source, std::uint32_t seq, sim::Time now);
    /// Close the current window if it has elapsed (call from a periodic tick
    /// so loss decays toward the window estimate even when nothing arrives —
    /// a totally dead path cannot refresh itself via observe()).
    void roll(sim::Time now);
    /// Forget all per-sender sequence state (after a resync the sequence
    /// baseline is discontinuous) while keeping the smoothed delay.
    void reset();
    /// Forget one sender's baseline (its peer was declared dead, or its
    /// stream moved to another path), so the gap is not counted as loss.
    /// Unlike reset(), the window and the delay are untouched.
    void forget(std::uint32_t source) { sources_.erase(source); }

    /// Loss fraction over the last completed window, in [0, 1].
    [[nodiscard]] double loss() const { return loss_; }
    /// Smoothed e2e delay estimate (ms); 0 before any sample.
    [[nodiscard]] double rtt_ms() const { return rtt_.value(); }
    [[nodiscard]] std::uint64_t received() const { return received_total_; }
    [[nodiscard]] std::uint64_t lost() const { return lost_total_; }

private:
    struct SourceState {
        std::uint32_t last_seq{0};
    };

    PathHealthParams params_;
    std::map<std::uint32_t, SourceState> sources_;
    sim::Time window_start_{sim::Time::max()};  // max() = window not yet open
    std::uint64_t window_expected_{0};
    std::uint64_t window_received_{0};
    double loss_{0.0};
    math::Ewma rtt_;
    std::uint64_t received_total_{0};
    std::uint64_t lost_total_{0};
};

}  // namespace mvc::fault
