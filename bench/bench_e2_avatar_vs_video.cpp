// E2 — avatar synchronization traffic vs live video streaming.
// Claim (§3.3): "these data [avatar sync] account for less traffic than live
// video streaming". We measure the real wire bytes of one participant's
// avatar stream — full snapshots, gated deltas, different tick rates —
// against the video ladder a Zoom-style classroom would ship.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "media/video.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sync/replication.hpp"

using namespace mvc;

namespace {

struct AvatarRow {
    const char* label;
    double bits_per_second;
    std::uint64_t packets;
};

/// Drive one publisher with a lively seated participant for `seconds` of
/// simulated time and report the wire rate.
AvatarRow measure_avatar(const char* label, double tick_hz, double error_threshold,
                         double keyframe_s, double seconds = 60.0) {
    sim::Simulator sim{13};
    avatar::AvatarCodec codec;
    sync::ReplicationParams params;
    params.tick_rate_hz = tick_hz;
    params.error_threshold = error_threshold;
    params.keyframe_interval = sim::Time::seconds(keyframe_s);

    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    sync::AvatarPublisher pub{sim, codec, params,
                              [&](std::vector<std::uint8_t> b, bool, sim::Time) {
                                  bytes += b.size() + net::kHeaderBytes;
                                  ++packets;
                              }};
    pub.set_provider([&]() -> std::optional<avatar::AvatarState> {
        // Animated participant: sway + head turn + gesturing hands + talking
        // face. Deliberately lively so deltas fire often (worst case).
        const double t = sim.now().to_seconds();
        avatar::AvatarState s;
        s.participant = ParticipantId{1};
        s.captured_at = sim.now();
        s.root.pose.position = {0.08 * std::sin(0.8 * t), 0.0, 0.04 * std::sin(1.3 * t)};
        s.root.pose.orientation =
            math::Quat::from_axis_angle(math::Vec3::unit_y(), 0.5 * std::sin(0.4 * t));
        s.root.linear_velocity = {0.064 * std::cos(0.8 * t), 0.0, 0.052 * std::cos(1.3 * t)};
        const math::Quat& q = s.root.pose.orientation;
        s.body.head = {s.root.pose.position + q.rotate({0, 0.65, 0}), q};
        s.body.left_hand = {s.root.pose.position +
                                q.rotate({-0.25, 0.35 + 0.1 * std::sin(2.0 * t), -0.2}),
                            q};
        s.body.right_hand = {s.root.pose.position +
                                 q.rotate({0.25, 0.35 + 0.15 * std::sin(1.7 * t), -0.2}),
                             q};
        s.expression.assign(avatar::kExpressionChannels, 0.0);
        s.expression[1] = 0.5 + 0.5 * std::sin(12.0 * t);  // talking
        s.expression[2] = 0.3 + 0.3 * std::sin(9.0 * t);
        s.viseme = static_cast<std::uint8_t>(1 + static_cast<int>(t * 8) % 14);
        return s;
    });
    pub.start();
    sim.run_until(sim::Time::seconds(seconds));
    return {label, static_cast<double>(bytes) * 8.0 / seconds, packets};
}

}  // namespace

int main() {
    bench::Session session{"e2"};
    session.set_seed(13);

    std::printf("\nPer-participant avatar stream (lively seated participant, 60 s):\n");
    const AvatarRow rows[] = {
        measure_avatar("full snapshots @ 60 Hz (no gating)", 60.0, 0.0, 0.0166),
        measure_avatar("full snapshots @ 30 Hz (no gating)", 30.0, 0.0, 0.0333),
        measure_avatar("deltas @ 60 Hz, gated, 1 s keyframe", 60.0, 0.02, 1.0),
        measure_avatar("deltas @ 30 Hz, gated, 1 s keyframe", 30.0, 0.02, 1.0),
        measure_avatar("deltas @ 10 Hz, gated, 2 s keyframe", 10.0, 0.02, 2.0),
    };
    for (const auto& r : rows) {
        session.record(std::string{"avatar_bps / "} + r.label, r.bits_per_second);
        std::printf("  %-44s %14s  (%llu packets)\n", r.label,
                    bench::fmt_rate(r.bits_per_second).c_str(),
                    static_cast<unsigned long long>(r.packets));
    }

    std::printf("\nLive video alternatives (per participant webcam tile):\n");
    const media::VideoProfile profiles[] = {media::profile_360p(), media::profile_720p(),
                                            media::profile_1080p()};
    const char* names[] = {"360p webcam", "720p webcam", "1080p webcam"};
    for (int i = 0; i < 3; ++i) {
        session.record(std::string{"video_bps / "} + names[i], profiles[i].bitrate_bps);
        std::printf("  %-44s %14s  (PSNR %.1f dB)\n", names[i],
                    bench::fmt_rate(profiles[i].bitrate_bps).c_str(),
                    media::encode_psnr_db(profiles[i]));
    }

    const double avatar_best = rows[3].bits_per_second;  // 30 Hz gated deltas
    const double video_least = media::profile_360p().bitrate_bps;
    session.record("video_over_avatar_ratio", video_least / avatar_best);
    std::printf("\nratio: cheapest video / production avatar stream = %.0fx\n",
                video_least / avatar_best);
    session.gate({"video_over_avatar_ratio.min", 10.0, {}});
    return session.finish();
}
