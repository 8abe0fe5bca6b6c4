#pragma once
// Two-sided hold-time hysteresis: the one control rule behind every
// controller that steps an actuator when a noisy signal crosses a threshold
// (fault::DegradationPolicy, recovery::AdmissionGate, qoe::AbrController).
// The caller classifies each observation as past the enter threshold, past
// the exit threshold, or neither (the band), masking each side by what its
// actuator can still do. A side fires once its signal has held for that
// side's hold; a band observation stops both clocks. Firing restarts that
// side's clock at the step instant, so each further step in the same
// direction needs a full hold of its own. `min_dwell` spaces any two steps:
// the clocks keep arming during the dwell, but nothing fires inside it.

#include "sim/time.hpp"

namespace mvc::sim {

class Hysteresis {
public:
    enum class Step { none, enter, exit };

    Hysteresis(Time enter_hold, Time exit_hold, Time min_dwell = Time::zero())
        : enter_hold_(enter_hold), exit_hold_(exit_hold), min_dwell_(min_dwell) {}

    /// Feed one observation at `now`; `enter` wins if both sides are set.
    Step update(bool enter, bool exit, Time now) {
        exit = exit && !enter;
        if (!enter) enter_since_ = Time::max();
        if (!exit) exit_since_ = Time::max();
        if (enter && enter_since_ == Time::max()) enter_since_ = now;
        if (exit && exit_since_ == Time::max()) exit_since_ = now;
        if (last_step_ != Time::max() && now - last_step_ < min_dwell_) return Step::none;
        if (enter && now - enter_since_ >= enter_hold_) return fire(enter_since_, Step::enter, now);
        if (exit && now - exit_since_ >= exit_hold_) return fire(exit_since_, Step::exit, now);
        return Step::none;
    }

private:
    Time enter_hold_;
    Time exit_hold_;
    Time min_dwell_;
    // Time::max() means "signal not on that side" / "no step yet".
    Time enter_since_{Time::max()};
    Time exit_since_{Time::max()};
    Time last_step_{Time::max()};

    Step fire(Time& since, Step step, Time now) {
        since = now;
        last_step_ = now;
        return step;
    }
};

}  // namespace mvc::sim
