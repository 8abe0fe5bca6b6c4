// E6 — split rendering: "render a low-quality version of the models
// on-device and merge the rendered frame with high-quality frames rendered
// in the cloud [Outatime]" (§3.3).
//
// Device classes x strategies x cloud RTT. Expected shape: cloud-only wins
// quality but its motion-to-photon latency tracks the RTT past the 100 ms
// budget; local-only is responsive but collapses to coarse LODs on weak
// devices; split keeps local responsiveness and most of the cloud quality,
// degrading gracefully (artifacts) as RTT and head motion grow.

#include <cstdio>
#include <map>

#include "bench/bench_util.hpp"
#include "render/split.hpp"

using namespace mvc;
using namespace mvc::render;

int main() {
    bench::Session session{"e6"};

    const DeviceProfile devices[] = {phone_webgl_profile(), standalone_hmd_profile(),
                                     pc_vr_profile()};
    // The shape checks read the standalone HMD's rows at 60 ms RTT.
    const DeviceProfile& hmd = devices[1];
    std::map<RenderMode, SplitOutcome> hmd60;

    std::printf("\n30-avatar classroom, moderate head motion (0.8 rad/s):\n");
    std::printf("%-16s %-12s %8s %10s %12s %10s %10s\n", "device", "mode", "rtt ms",
                "fps", "mtp ms", "quality", "artifact");
    for (const auto& dev : devices) {
        for (const double rtt : {20.0, 60.0, 150.0}) {
            for (const RenderMode mode :
                 {RenderMode::LocalOnly, RenderMode::CloudOnly, RenderMode::Split}) {
                SplitConditions cond;
                cond.avatar_count = 30;
                cond.cloud_rtt_ms = rtt;
                cond.head_angular_speed = 0.8;
                const SplitOutcome out = evaluate(mode, dev, cond);
                if (&dev == &hmd && rtt == 60.0) hmd60[mode] = out;
                const std::string key = std::string{dev.name} + "/" +
                                        std::string{render_mode_name(mode)} + "@" +
                                        std::to_string(static_cast<int>(rtt));
                session.record(key + " / fps", out.fps);
                session.record(key + " / mtp_ms", out.motion_to_photon_ms);
                session.record(key + " / quality", out.visual_quality);
                std::printf("%-16s %-12s %8.0f %10.1f %12.1f %10.1f %10.1f\n",
                            std::string{dev.name}.c_str(),
                            std::string{render_mode_name(mode)}.c_str(), rtt, out.fps,
                            out.motion_to_photon_ms, out.visual_quality,
                            out.artifact_penalty);
            }
        }
    }

    const SplitOutcome& local = hmd60[RenderMode::LocalOnly];
    const SplitOutcome& cloud = hmd60[RenderMode::CloudOnly];
    const SplitOutcome& split = hmd60[RenderMode::Split];
    session.record("hmd@60 / cloud_minus_split_quality",
                   cloud.visual_quality - split.visual_quality);
    session.record("hmd@60 / split_minus_local_quality",
                   split.visual_quality - local.visual_quality);
    session.record("hmd@60 / split_minus_local_mtp_ms",
                   split.motion_to_photon_ms - local.motion_to_photon_ms);
    session.record("hmd@60 / cloud_over_split_mtp",
                   cloud.motion_to_photon_ms / split.motion_to_photon_ms);

    // Cloud quality > split quality > local quality.
    session.gate({"hmd@60 / cloud_minus_split_quality.min", 0.0, {}});
    session.gate({"hmd@60 / split_minus_local_quality.min", 0.0, {}});
    // Split motion-to-photon ~= local (within 1 ms) << cloud (over 2x).
    session.gate({"hmd@60 / split_minus_local_mtp_ms.max", {}, 1.0});
    session.gate({"hmd@60 / cloud_over_split_mtp.min", 2.0, {}});
    // Cloud-only busts the 100 ms budget at 150 ms RTT.
    session.gate({"standalone-hmd/cloud-only@150 / mtp_ms.min", 100.0, {}});
    return session.finish();
}
