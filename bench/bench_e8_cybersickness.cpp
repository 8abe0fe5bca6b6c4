// E8 — cybersickness across individual profiles and system conditions.
// Claims (§3.3): latency / FOV / frame rate / navigation parameters drive
// cybersickness; susceptibility differs per individual (age, gaming
// experience, gender per [44]); the speed protector [43] adapts navigation
// speed to keep sessions comfortable.
//
// We simulate a 45-minute VR lab class with locomotion segments and report
// end-of-class SSQ-like scores. Expected shape: scores rise with speed,
// latency and low fps; vulnerable profiles sit strictly above habituated
// ones; the protector pulls everyone under its budget at modest cost in
// allowed speed.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "comfort/cybersickness.hpp"

using namespace mvc;
using namespace mvc::comfort;

namespace {

struct Profile {
    const char* label;
    UserProfile user;
};

Profile profiles[] = {
    {"young expert gamer (22y, 20h/wk)", {22.0, Gender::Male, 20.0}},
    {"young casual (24y, 5h/wk)", {24.0, Gender::Female, 5.0}},
    {"mid-career novice (45y, 1h/wk)", {45.0, Gender::Male, 1.0}},
    {"senior novice (67y, 0h/wk)", {67.0, Gender::Female, 0.0}},
};

/// 45-minute class: alternating seated lecture (5 min) and lab locomotion
/// (5 min) segments.
double run_class(const UserProfile& user, double nav_speed, double latency_ms, double fps,
                 double fov_deg, bool protect, double* mean_allowed_speed = nullptr) {
    CybersicknessModel model{user, SicknessParams{}};
    SpeedProtectorParams pp;
    pp.score_budget = 15.0;
    pp.session_minutes = 45.0;
    SpeedProtector protector{model, pp};

    double speed_sum = 0.0;
    int speed_samples = 0;
    for (int sec = 0; sec < 45 * 60; ++sec) {
        const bool lab_segment = (sec / 300) % 2 == 1;
        // Within a lab segment students move in bursts (walk to a station,
        // stop, observe) — 10 s on / 10 s off.
        const bool locomoting = lab_segment && (sec % 20) < 10;
        ExposureConditions cond;
        cond.latency_ms = latency_ms;
        cond.fps = fps;
        cond.fov_deg = fov_deg;
        double v = locomoting ? nav_speed : 0.0;
        if (protect && locomoting) {
            v = protector.allowed_speed(v, cond, sec / 60.0);
        }
        if (locomoting) {
            speed_sum += v;
            ++speed_samples;
        }
        cond.nav_speed_mps = v;
        // Turning is part of locomotion (snap-turning toward stations).
        cond.rotation_rps = locomoting ? 0.15 * v : 0.02;
        model.advance(1.0, cond);
    }
    if (mean_allowed_speed != nullptr && speed_samples > 0) {
        *mean_allowed_speed = speed_sum / speed_samples;
    }
    return model.score();
}

}  // namespace

int main() {
    bench::Session session{"e8"};

    std::printf("\n(a) profile x navigation speed (45-min class, 20 ms latency, 72 fps, "
                "100deg FOV):\n");
    std::printf("%-36s %10s %10s %10s\n", "profile", "2 m/s", "3.5 m/s", "5 m/s");
    double prev_profile_score = -1.0;
    std::uint64_t inversions = 0;
    for (const auto& p : profiles) {
        const double s2 = run_class(p.user, 2.0, 20.0, 72.0, 100.0, false);
        const double s35 = run_class(p.user, 3.5, 20.0, 72.0, 100.0, false);
        const double s5 = run_class(p.user, 5.0, 20.0, 72.0, 100.0, false);
        session.record(std::string{p.label} + " / score@3.5mps", s35);
        std::printf("%-36s %10.1f %10.1f %10.1f\n", p.label, s2, s35, s5);
        if (prev_profile_score >= 0.0 && s35 < prev_profile_score) ++inversions;
        prev_profile_score = s35;
    }
    session.count("susceptibility_inversions", inversions);

    std::printf("\n(b) system conditions (mid-career novice, 3.5 m/s):\n");
    struct Cond {
        const char* label;
        double latency, fps, fov;
    };
    const Cond conds[] = {
        {"ideal (20 ms, 90 fps, 100deg)", 20.0, 90.0, 100.0},
        {"high latency (120 ms)", 120.0, 90.0, 100.0},
        {"low frame rate (30 fps)", 20.0, 30.0, 100.0},
        {"fov restricted to 70deg", 20.0, 90.0, 70.0},
        {"everything bad (120 ms, 30 fps, 110deg)", 120.0, 30.0, 110.0},
    };
    const UserProfile novice = profiles[2].user;
    double ideal_score = 0.0;
    for (const auto& c : conds) {
        const double s = run_class(novice, 3.5, c.latency, c.fps, c.fov, false);
        session.record(std::string{"condition / "} + c.label, s);
        std::printf("  %-42s %8.1f\n", c.label, s);
        if (c.latency == 20.0 && c.fps == 90.0 && c.fov == 100.0) ideal_score = s;
        if (c.latency == 120.0 && c.fps == 30.0)
            session.record("worst_over_ideal_condition", s / ideal_score);
    }

    std::printf("\n(c) speed protector (budget 15, everyone requests 5 m/s):\n");
    std::printf("%-36s %12s %12s %14s\n", "profile", "unprotected", "protected",
                "mean speed");
    for (const auto& p : profiles) {
        double allowed = 0.0;
        const double raw = run_class(p.user, 5.0, 20.0, 72.0, 100.0, false);
        const double prot = run_class(p.user, 5.0, 20.0, 72.0, 100.0, true, &allowed);
        std::printf("%-36s %12.1f %12.1f %11.2f m/s\n", p.label, raw, prot, allowed);
        session.record("protected_score", prot);
    }

    // Susceptibility is ordered young expert < ... < senior novice.
    session.gate({"susceptibility_inversions", {}, 0.0});
    // Degraded system conditions inflate symptoms by over 1.5x.
    session.gate({"worst_over_ideal_condition.min", 1.5, {}});
    // The protector keeps every profile within its budget of 15 (+0.6 slack).
    session.gate({"protected_score.max", {}, 15.6});
    return session.finish();
}
