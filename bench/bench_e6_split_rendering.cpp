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

#include "bench/bench_util.hpp"
#include "render/split.hpp"

using namespace mvc;
using namespace mvc::render;

int main() {
    bench::Session session{"e6"};

    const DeviceProfile devices[] = {phone_webgl_profile(), standalone_hmd_profile(),
                                     pc_vr_profile()};

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

    // Checks of the expected shape on the standalone HMD at 60 ms RTT.
    SplitConditions cond;
    cond.avatar_count = 30;
    cond.cloud_rtt_ms = 60.0;
    cond.head_angular_speed = 0.8;
    const DeviceProfile hmd = standalone_hmd_profile();
    const SplitOutcome local = evaluate(RenderMode::LocalOnly, hmd, cond);
    const SplitOutcome cloud = evaluate(RenderMode::CloudOnly, hmd, cond);
    const SplitOutcome split = evaluate(RenderMode::Split, hmd, cond);

    std::printf("\nstandalone HMD @ 60 ms RTT:\n");
    std::printf("expected shape: cloud quality > split quality > local quality -> %s\n",
                cloud.visual_quality > split.visual_quality &&
                        split.visual_quality > local.visual_quality
                    ? "PASS"
                    : "FAIL");
    std::printf("expected shape: split mtp ~= local mtp << cloud mtp -> %s\n",
                split.motion_to_photon_ms <= local.motion_to_photon_ms + 1.0 &&
                        cloud.motion_to_photon_ms > 2.0 * split.motion_to_photon_ms
                    ? "PASS"
                    : "FAIL");
    std::printf("expected shape: cloud-only busts 100 ms budget at 150 ms RTT -> %s\n",
                [&] {
                    SplitConditions far = cond;
                    far.cloud_rtt_ms = 150.0;
                    return evaluate(RenderMode::CloudOnly, hmd, far).motion_to_photon_ms >
                           100.0;
                }()
                    ? "PASS"
                    : "FAIL");
    return 0;
}
