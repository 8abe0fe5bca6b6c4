// E5 — dead-reckoning send gating: the bandwidth/fidelity dial behind
// "users' actions need to be synchronized in real-time to enable seamless
// interaction" (§3.3).
//
// One publisher/replica pair over an ideal link. We sweep the error
// threshold and the tick rate and report (a) wire rate, (b) the receiver's
// actual display error against ground truth. Expected shape: a monotone
// bandwidth/error trade-off — looser thresholds cut traffic but the
// displayed avatar drifts further from the truth.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "net/packet.hpp"
#include "sync/replication.hpp"
#include "sim/simulator.hpp"

using namespace mvc;

namespace {

avatar::AvatarState truth_at(double t) {
    // Student leaning/gesturing: sinusoids with mild harmonics; imperfectly
    // predictable by constant-velocity extrapolation.
    avatar::AvatarState s;
    s.participant = ParticipantId{1};
    s.captured_at = sim::Time::seconds(t);
    s.root.pose.position = {0.3 * std::sin(1.1 * t) + 0.1 * std::sin(2.9 * t), 0.0,
                            0.2 * std::sin(0.7 * t)};
    s.root.linear_velocity = {0.33 * std::cos(1.1 * t) + 0.29 * std::cos(2.9 * t), 0.0,
                              0.14 * std::cos(0.7 * t)};
    s.root.pose.orientation =
        math::Quat::from_axis_angle(math::Vec3::unit_y(), 0.6 * std::sin(0.5 * t));
    const math::Quat& q = s.root.pose.orientation;
    s.body.head = {s.root.pose.position + q.rotate({0, 0.65, 0}), q};
    s.body.left_hand = {s.root.pose.position + q.rotate({-0.25, 0.35, -0.2}), q};
    s.body.right_hand = {s.root.pose.position + q.rotate({0.25, 0.35, -0.2}), q};
    return s;
}

struct Row {
    double threshold;
    double tick_hz;
    double kbps;
    double mean_err_cm;
    double p95_err_cm;
    double updates_per_s;
};

Row run(double threshold, double tick_hz, double seconds = 120.0) {
    sim::Simulator sim{29};
    avatar::AvatarCodec codec;
    sync::ReplicationParams params;
    params.tick_rate_hz = tick_hz;
    params.error_threshold = threshold;
    params.keyframe_interval = sim::Time::seconds(1.0);

    sync::JitterBufferParams jb;
    jb.min_delay = sim::Time::ms(5);
    sync::AvatarReplica replica{codec, jb};
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    sync::AvatarPublisher pub{sim, codec, params,
                              [&](std::vector<std::uint8_t> b, bool kf, sim::Time) {
                                  bytes += b.size() + net::kHeaderBytes;
                                  ++packets;
                                  replica.ingest(b, kf, sim.now());
                              }};
    pub.set_provider([&]() -> std::optional<avatar::AvatarState> {
        return truth_at(sim.now().to_seconds());
    });
    pub.start();

    // Sample the displayed error at 90 Hz (a viewer's frame rate): what is
    // on screen versus where the person *actually is right now*. This is
    // the perceptual presence error; it includes the (small, intentional)
    // playout delay and grows when suppression lets the display go stale.
    math::SampleSeries err_cm;
    sim.schedule_every(sim::Time::ms(1000.0 / 90.0), [&] {
        const auto shown = replica.display(sim.now());
        if (!shown.has_value()) return;
        const avatar::AvatarState ideal = truth_at(sim.now().to_seconds());
        err_cm.add(avatar::avatar_error(*shown, ideal) * 100.0);
    });
    sim.run_until(sim::Time::seconds(seconds));

    return {threshold, tick_hz, static_cast<double>(bytes) * 8.0 / seconds / 1000.0,
            err_cm.mean(), err_cm.p95(),
            static_cast<double>(packets) / seconds};
}

}  // namespace

int main() {
    bench::Session session{"e5"};
    session.set_seed(29);

    std::printf("\n%10s %8s %12s %12s %14s %14s\n", "threshold", "tick Hz", "kbit/s",
                "updates/s", "mean err (cm)", "p95 err (cm)");
    double prev_kbps = -1.0;
    bool monotone_bw = true;
    double err_tight = 0.0;
    double err_loose = 0.0;
    for (const double threshold : {0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}) {
        const Row r = run(threshold, 30.0);
        const std::string key = "threshold " + std::to_string(threshold);
        session.record(key + " / kbps", r.kbps);
        session.record(key + " / mean_err_cm", r.mean_err_cm);
        std::printf("%10.3f %8.0f %12.2f %12.1f %14.2f %14.2f\n", r.threshold, r.tick_hz,
                    r.kbps, r.updates_per_s, r.mean_err_cm, r.p95_err_cm);
        if (prev_kbps >= 0.0 && r.kbps > prev_kbps + 0.5) monotone_bw = false;
        prev_kbps = r.kbps;
        if (threshold == 0.0) err_tight = r.mean_err_cm;
        if (threshold == 0.2) err_loose = r.mean_err_cm;
    }

    std::printf("\ntick-rate sweep at threshold 0.02:\n");
    for (const double hz : {10.0, 20.0, 30.0, 60.0}) {
        const Row r = run(0.02, hz);
        std::printf("%10.3f %8.0f %12.2f %12.1f %14.2f %14.2f\n", r.threshold, r.tick_hz,
                    r.kbps, r.updates_per_s, r.mean_err_cm, r.p95_err_cm);
    }

    std::printf("\nexpected shape: bandwidth falls monotonically with threshold -> %s\n",
                monotone_bw ? "PASS" : "FAIL");
    // Near zero the error sits on the quantization/interpolation floor, so
    // compare the extremes rather than demanding strict monotonicity.
    std::printf("expected shape: loosest threshold errs >2x the tightest -> %s "
                "(%.2f vs %.2f cm)\n",
                err_loose > 2.0 * err_tight ? "PASS" : "FAIL", err_loose, err_tight);
    return 0;
}
