// E13 (ablation) — why the receiver pipeline buffers before display.
// §3.3 lists latency as the primary challenge, which tempts a designer to
// render the freshest packet immediately. This ablation quantifies the
// trade: rendering replica.latest() (no buffer) versus the adaptive jitter
// buffer, over a WAN path with realistic jitter and reordering.
//
// Metrics at a 90 Hz display: smoothness (mean |frame-to-frame velocity
// change| — perceived stutter), displayed-pose error against ground truth,
// and the effective display latency. Expected shape: the buffer trades a
// bounded latency increase for a large smoothness win; without it, jitter
// shows up directly as avatar stutter.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "net/transport.hpp"
#include "sync/replication.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

using namespace mvc;

namespace {

avatar::AvatarState truth_at(double t) {
    avatar::AvatarState s;
    s.participant = ParticipantId{1};
    s.captured_at = sim::Time::seconds(t);
    s.root.pose.position = {0.4 * std::sin(1.3 * t), 0.0, 0.3 * std::sin(0.9 * t)};
    s.root.linear_velocity = {0.52 * std::cos(1.3 * t), 0.0, 0.27 * std::cos(0.9 * t)};
    const math::Quat q = math::Quat::from_axis_angle(math::Vec3::unit_y(),
                                                     0.5 * std::sin(0.6 * t));
    s.root.pose.orientation = q;
    s.body.head = {s.root.pose.position + q.rotate({0, 0.65, 0}), q};
    s.body.left_hand = {s.root.pose.position + q.rotate({-0.25, 0.35, -0.2}), q};
    s.body.right_hand = {s.root.pose.position + q.rotate({0.25, 0.35, -0.2}), q};
    return s;
}

struct Row {
    const char* mode;
    double jitter_ms;
    double smoothness_mm;  // mean |Δv| per frame, in mm/frame
    double err_cm;
    double latency_ms;
};

struct Wire {
    std::vector<std::uint8_t> bytes;
    bool kf;
};

Row run(bool buffered, double jitter_ms, double seconds = 60.0) {
    sim::Simulator sim{67};
    net::Network net{sim};
    const net::NodeId a = net.add_node("src", net::Region::HongKong);
    const net::NodeId b = net.add_node("dst", net::Region::Boston);
    net::LinkParams link;
    link.latency = sim::Time::ms(50.0);
    link.jitter = sim::Time::ms(jitter_ms);
    link.spike_probability = jitter_ms > 0.0 ? 0.01 : 0.0;
    net.connect(a, b, link);
    net::PacketDemux demux_b{net, b};

    avatar::AvatarCodec codec;
    sync::ReplicationParams params;
    params.tick_rate_hz = 30.0;
    params.error_threshold = 0.01;
    sync::AvatarReplica replica{codec};

    sync::AvatarPublisher pub{sim, codec, params,
                              [&](std::vector<std::uint8_t> bytes, bool kf, sim::Time) {
                                  net.send(a, b, bytes.size(), "avatar",
                                           Wire{std::move(bytes), kf});
                              }};
    demux_b.on_flow("avatar", [&](net::Packet&& p) {
        const auto w = p.payload.take<Wire>();
        replica.ingest(w.bytes, w.kf, sim.now());
    });
    pub.set_provider([&]() -> std::optional<avatar::AvatarState> {
        return truth_at(sim.now().to_seconds());
    });
    pub.start();

    math::RunningStats jerk_mm;
    math::SampleSeries err_cm;
    math::SampleSeries latency_ms;
    bool have_prev = false;
    math::Vec3 prev_pos;
    math::Vec3 prev_vel;
    sim.schedule_every(sim::Time::ms(1000.0 / 90.0), [&] {
        const auto shown = buffered ? replica.display(sim.now()) : replica.latest();
        if (!shown.has_value()) return;
        const math::Vec3 pos = shown->root.pose.position;
        if (have_prev) {
            const math::Vec3 vel = pos - prev_pos;  // per-frame displacement
            jerk_mm.add((vel - prev_vel).norm() * 1000.0);
            prev_vel = vel;
        } else {
            prev_vel = math::Vec3::zero();
        }
        prev_pos = pos;
        have_prev = true;
        err_cm.add(shown->root.pose.position.distance_to(
                       truth_at(shown->captured_at.to_seconds()).root.pose.position) *
                   100.0);
        latency_ms.add((sim.now() - shown->captured_at).to_ms());
    });
    sim.run_until(sim::Time::seconds(seconds));

    return {buffered ? "buffered" : "latest", jitter_ms, jerk_mm.mean(), err_cm.mean(),
            latency_ms.mean()};
}

}  // namespace

int main() {
    bench::Session session{"e13"};
    session.set_seed(67);

    std::printf("\n50 ms path, 30 Hz gated avatar stream, 90 Hz display:\n");
    std::printf("%-10s %10s %18s %12s %12s\n", "mode", "jitter", "stutter mm/frame",
                "err (cm)", "latency ms");
    double stutter_latest_hi = 0.0;
    double stutter_buffered_hi = 0.0;
    double latency_latest_hi = 0.0;
    double latency_buffered_hi = 0.0;
    for (const double jitter : {0.0, 3.0, 8.0}) {
        for (const bool buffered : {false, true}) {
            const Row r = run(buffered, jitter);
            const std::string key = std::string{r.mode} + " / jitter " +
                                    std::to_string(jitter);
            session.record(key + " / stutter_mm", r.smoothness_mm);
            session.record(key + " / latency_ms", r.latency_ms);
            std::printf("%-10s %8.1fms %18.2f %12.2f %12.1f\n", r.mode, r.jitter_ms,
                        r.smoothness_mm, r.err_cm, r.latency_ms);
            if (jitter == 8.0 && !buffered) {
                stutter_latest_hi = r.smoothness_mm;
                latency_latest_hi = r.latency_ms;
            }
            if (jitter == 8.0 && buffered) {
                stutter_buffered_hi = r.smoothness_mm;
                latency_buffered_hi = r.latency_ms;
            }
        }
    }

    std::printf("\nexpected shape: buffer cuts stutter by >2x under 8 ms jitter -> %s "
                "(%.2f -> %.2f mm/frame)\n",
                stutter_buffered_hi * 2.0 < stutter_latest_hi ? "PASS" : "FAIL",
                stutter_latest_hi, stutter_buffered_hi);
    std::printf("expected shape: the smoothness costs bounded extra latency (< 60 ms) "
                "-> %s (%+.1f ms)\n",
                latency_buffered_hi - latency_latest_hi < 60.0 ? "PASS" : "FAIL",
                latency_buffered_hi - latency_latest_hi);
    return 0;
}
