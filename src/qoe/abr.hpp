#pragma once
// Per-client adaptive-bitrate controller over the media::video ladder. The
// controller consumes the shared congestion feedback a client already
// produces — fault::PathHealth loss + smoothed delay plus a delivered-
// goodput (capacity) estimate from per-flow wire-byte accounting — and picks
// a ladder rung with hysteresis: down-switches are fast (loss/delay past the
// enter threshold for a short hold, then drop straight to the highest rung
// that fits the usable capacity), up-switches are slow (a long clear-signal
// hold, one rung at a time, and only when the next rung's bitrate already
// fits the estimate), and a minimum dwell time bounds the switch rate, so a
// 10x oversubscribed link converges instead of oscillating between rungs.
// The holds and the dwell are a sim::Hysteresis, the same rule that drives
// fault::DegradationPolicy's ladder — one control primitive, different
// actuator.

#include <cstdint>
#include <vector>

#include "media/video.hpp"
#include "sim/hysteresis.hpp"
#include "sim/time.hpp"

namespace mvc::qoe {

struct AbrParams {
    /// Fraction of the estimated capacity the controller is willing to
    /// commit to media (headroom absorbs estimate noise).
    double safety{0.85};
    /// Bits/s held back from the video budget for avatar freshness: the
    /// budget allocator spends it on interest-tier update rates, so video
    /// never starves the avatar stream outright.
    double reserve_bps{5.0e4};
    /// Loss at/above which the path counts as congested (after hold_down).
    double down_loss{0.08};
    /// Loss must be at/below this before an up-switch is considered; must
    /// be below `down_loss`.
    double up_loss{0.02};
    /// Delay (ms) at/above which the path counts as congested; zero
    /// disables the delay criterion (mirrors fault::DegradationParams).
    double down_rtt_ms{0.0};
    double up_rtt_ms{0.0};
    /// Congestion must persist this long before stepping down.
    sim::Time hold_down{sim::Time::ms(500)};
    /// The signal must stay clear this long before stepping up.
    sim::Time hold_up{sim::Time::seconds(3.0)};
    /// Floor between any two switches (bounds switches per minute).
    sim::Time min_dwell{sim::Time::seconds(1.0)};
};

class AbrController {
public:
    /// `ladder` is lowest-bitrate-first (media::default_ladder()); the
    /// controller starts at the top rung, so a clean link never switches.
    /// Throws std::invalid_argument on an empty or descending ladder, or
    /// unless down_loss > up_loss.
    explicit AbrController(std::vector<media::VideoProfile> ladder,
                           AbrParams params = {});

    /// Feed one feedback observation. `capacity_bps` <= 0 means "no
    /// estimate yet" and skips the throughput criterion. Returns true when
    /// the rung changed (callers re-signal the sender).
    bool update(double loss, double rtt_ms, double capacity_bps, sim::Time now);

    [[nodiscard]] int rung() const { return rung_; }
    [[nodiscard]] int top_rung() const { return static_cast<int>(ladder_.size()) - 1; }
    [[nodiscard]] const media::VideoProfile& profile() const {
        return ladder_[static_cast<std::size_t>(rung_)];
    }
    [[nodiscard]] const std::vector<media::VideoProfile>& ladder() const {
        return ladder_;
    }
    [[nodiscard]] std::uint64_t switches() const { return switches_; }
    [[nodiscard]] double switches_per_minute(sim::Time elapsed) const;
    [[nodiscard]] const AbrParams& params() const { return params_; }

private:
    std::vector<media::VideoProfile> ladder_;
    AbrParams params_;
    int rung_{0};
    std::uint64_t switches_{0};
    sim::Hysteresis hysteresis_;

    [[nodiscard]] int best_fit(double usable_bps) const;
};

}  // namespace mvc::qoe
