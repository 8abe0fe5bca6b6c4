// E9 — vacant-seat assignment and pose correction (Figure 3: "identifies
// the vacant seats ... corrects the pose to match the new position").
//
// (a) assignment quality: optimal (Hungarian) vs greedy matching cost as
//     remote cohorts grow — relative-geometry preservation is the metric.
// (b) assignment compute time: the edge server runs this on arrival bursts,
//     so O(n^3) must stay sub-millisecond at classroom sizes.
// (c) retargeting fidelity: after seat correction, local motion magnitudes
//     are preserved exactly (isometry check) and roaming is clamped.

#include <chrono>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "edge/retarget.hpp"
#include "edge/seats.hpp"
#include "sim/rng.hpp"

using namespace mvc;
using namespace mvc::edge;

namespace {

std::vector<SeatRequest> random_cohort(std::size_t n, sim::Rng& rng) {
    std::vector<SeatRequest> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        out.push_back({ParticipantId{i + 1},
                       {rng.uniform(-4.0, 4.0), 0.0, rng.uniform(1.0, 7.0)}});
    }
    return out;
}

}  // namespace

int main() {
    bench::Session session{"e9"};
    session.set_seed(43);

    sim::Rng rng{43};

    std::printf("\n(a) matching cost (mean metres of relative-geometry distortion per "
                "avatar, 20 trials):\n");
    std::printf("%10s %10s %12s %12s %10s\n", "cohort", "seats", "optimal", "greedy",
                "ratio");
    bool optimal_wins = true;
    for (const std::size_t n : {4u, 8u, 16u, 24u}) {
        double opt_total = 0.0;
        double greedy_total = 0.0;
        for (int trial = 0; trial < 20; ++trial) {
            SeatMap seats = SeatMap::grid(5, 6);
            const auto cohort = random_cohort(n, rng);
            opt_total += assign_seats_optimal(seats, cohort).total_cost;
            greedy_total += assign_seats_greedy(seats, cohort).total_cost;
        }
        const double opt = opt_total / (20.0 * static_cast<double>(n));
        const double greedy = greedy_total / (20.0 * static_cast<double>(n));
        session.record("cohort " + std::to_string(n) + " / optimal_cost", opt);
        session.record("cohort " + std::to_string(n) + " / greedy_cost", greedy);
        std::printf("%10zu %10d %12.3f %12.3f %10.2fx\n", n, 30, opt, greedy,
                    greedy / opt);
        if (opt > greedy + 1e-9) optimal_wins = false;
    }

    std::printf("\n(b) assignment compute time (single burst, wall clock):\n");
    std::printf("%10s %16s %16s\n", "cohort", "hungarian", "greedy");
    double worst_us = 0.0;
    for (const std::size_t n : {8u, 16u, 32u, 64u}) {
        SeatMap seats = SeatMap::grid(8, 8);
        const auto cohort = random_cohort(n, rng);
        const auto t0 = std::chrono::steady_clock::now();
        for (int rep = 0; rep < 50; ++rep) (void)assign_seats_optimal(seats, cohort);
        const auto t1 = std::chrono::steady_clock::now();
        for (int rep = 0; rep < 50; ++rep) (void)assign_seats_greedy(seats, cohort);
        const auto t2 = std::chrono::steady_clock::now();
        const double hung_us =
            std::chrono::duration<double, std::micro>(t1 - t0).count() / 50.0;
        const double greedy_us =
            std::chrono::duration<double, std::micro>(t2 - t1).count() / 50.0;
        std::printf("%10zu %13.1f us %13.1f us\n", n, hung_us, greedy_us);
        worst_us = std::max(worst_us, hung_us);
    }

    std::printf("\n(c) retargeting fidelity (1000 random local motions):\n");
    PoseRetargeter rt;
    const math::Pose anchor{{5.0, 0.0, 3.0},
                            math::Quat::from_axis_angle(math::Vec3::unit_y(), 0.7)};
    const math::Pose seat{{-1.0, 0.0, 2.0},
                          math::Quat::from_axis_angle(math::Vec3::unit_y(), -0.4)};
    rt.bind(ParticipantId{1}, anchor, seat);
    double max_isometry_err = 0.0;
    for (int i = 0; i < 1000; ++i) {
        // Local motion within the roam radius.
        const math::Vec3 delta{rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1),
                               rng.uniform(-0.5, 0.5)};
        avatar::AvatarState s;
        s.participant = ParticipantId{1};
        s.root.pose = {anchor.position + anchor.orientation.rotate(delta),
                       anchor.orientation};
        s.body.head = {s.root.pose.position + math::Vec3{0, 0.65, 0},
                       s.root.pose.orientation};
        s.body.left_hand = s.body.head;
        s.body.right_hand = s.body.head;
        const auto out = rt.retarget(s);
        // Isometry: distance from seat must equal the local displacement.
        const double local = delta.norm();
        const double mapped = out->root.pose.position.distance_to(seat.position);
        max_isometry_err = std::max(max_isometry_err, std::abs(local - mapped));
    }
    std::printf("  max |local displacement - mapped displacement| = %.2e m\n",
                max_isometry_err);

    std::printf("\nexpected shape: optimal cost <= greedy cost everywhere -> %s\n",
                optimal_wins ? "PASS" : "FAIL");
    std::printf("expected shape: 64-avatar burst assigns in < 5 ms -> %s (worst %.0f us)\n",
                worst_us < 5000.0 ? "PASS" : "FAIL", worst_us);
    std::printf("expected shape: retargeting is an isometry (err < 1e-9) -> %s\n",
                max_isometry_err < 1e-9 ? "PASS" : "FAIL");
    return 0;
}
