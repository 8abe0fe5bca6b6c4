#include "qoe/abr.hpp"

#include <algorithm>
#include <stdexcept>

namespace mvc::qoe {

AbrController::AbrController(std::vector<media::VideoProfile> ladder, AbrParams params)
    : ladder_(std::move(ladder)),
      params_(params),
      hysteresis_(params.hold_down, params.hold_up, params.min_dwell) {
    if (ladder_.empty()) throw std::invalid_argument("AbrController: empty ladder");
    if (params_.down_loss <= params_.up_loss)
        throw std::invalid_argument("AbrController: down_loss must exceed up_loss");
    for (std::size_t i = 1; i < ladder_.size(); ++i) {
        if (ladder_[i].bitrate_bps < ladder_[i - 1].bitrate_bps)
            throw std::invalid_argument("AbrController: ladder must ascend");
    }
    rung_ = top_rung();
}

int AbrController::best_fit(double usable_bps) const {
    // Highest rung whose bitrate fits the usable budget; rung 0 is the floor
    // (a session never goes fully videoless — the floor rung is the
    // thumbnail stream).
    int fit = 0;
    for (std::size_t i = 0; i < ladder_.size(); ++i) {
        if (ladder_[i].bitrate_bps <= usable_bps) fit = static_cast<int>(i);
    }
    return fit;
}

bool AbrController::update(double loss, double rtt_ms, double capacity_bps,
                           sim::Time now) {
    const bool have_capacity = capacity_bps > 0.0;
    const double usable =
        have_capacity ? params_.safety * capacity_bps - params_.reserve_bps : 0.0;

    // Entry is loss/delay driven only. The capacity estimate comes from
    // delivered goodput, which sits at or below the encode rate even on a
    // clean link — treating "current rung > usable" as congestion would
    // down-switch a perfectly healthy stream. Capacity instead decides how
    // far to drop and gates stepping back up.
    const bool congested =
        loss >= params_.down_loss ||
        (params_.down_rtt_ms > 0.0 && rtt_ms >= params_.down_rtt_ms);
    // Clear only when loss AND delay are back under their exit thresholds
    // and the next rung up already fits (no speculative probing: stepping
    // into a rung the path cannot carry is how oscillation starts).
    const bool next_fits =
        rung_ < top_rung() && have_capacity &&
        ladder_[static_cast<std::size_t>(rung_ + 1)].bitrate_bps <= usable;
    const bool clear = !congested && loss <= params_.up_loss &&
                       (params_.down_rtt_ms <= 0.0 || rtt_ms <= params_.up_rtt_ms) &&
                       next_fits;

    switch (hysteresis_.update(congested && rung_ > 0, clear, now)) {
        case sim::Hysteresis::Step::enter:
            // Drop straight to the rung that fits (at least one step): the
            // fast half of the hysteresis, so a throttled link drains its
            // backlog instead of stalling one rung at a time.
            rung_ = std::max(0, have_capacity ? std::min(rung_ - 1, best_fit(usable))
                                              : rung_ - 1);
            break;
        case sim::Hysteresis::Step::exit:
            ++rung_;  // the slow half: one rung per hold_up
            break;
        case sim::Hysteresis::Step::none:
            return false;
    }
    ++switches_;
    return true;
}

double AbrController::switches_per_minute(sim::Time elapsed) const {
    const double minutes = elapsed.to_seconds() / 60.0;
    return minutes > 0.0 ? static_cast<double>(switches_) / minutes : 0.0;
}

}  // namespace mvc::qoe
