// E1 — Figure 3 pipeline: motion-to-photon latency breakdown across the
// blended classroom, against the paper's "users start to notice latency
// above 100 ms" interactivity budget.
//
// Stages reported:
//   sensor->edge    headset sample over classroom WiFi into the edge server
//   edge->edge      avatar packet transit + remote edge queueing (per pair)
//   display         capture -> jitter-buffered displayable state (end to end)
//   +render         display plus the device frame pipeline (analytic)

#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/classroom.hpp"
#include "render/split.hpp"

using namespace mvc;

namespace {

void run_case(bench::Session& session, const char* label, std::size_t students_per_room,
              double seconds) {
    core::ClassroomConfig config;
    config.seed = 11;
    core::MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    for (std::size_t i = 0; i < students_per_room; ++i) {
        classroom.add_physical_student(0);
        classroom.add_physical_student(1);
    }
    classroom.add_remote_student(net::Region::Seoul);
    classroom.add_remote_student(net::Region::Boston);
    classroom.add_remote_student(net::Region::London);
    classroom.start();
    classroom.run_for(sim::Time::seconds(seconds));

    const auto& m = classroom.network().metrics();
    std::printf("\n--- %s (%zu students/room, %d remote, %.0f s simulated) ---\n", label,
                students_per_room, 3, seconds);
    const auto row = [&](const char* name, const math::SampleSeries& s) {
        bench::latency_row(name, s);
        session.record(std::string{label} + " / " + name, s);
    };
    row("sensor->edge (cwb wifi+wire)", m.series("edge.cwb.sensor_ingest_ms"));
    row("sensor->edge (gz wifi+wire)", m.series("edge.gz.sensor_ingest_ms"));
    row("avatar wan transit (all flows)", m.series("net.latency_ms.avatar"));
    row("edge ingest+queue (cwb)", m.series("edge.cwb.ingest_ms"));
    row("edge ingest+queue (gz)", m.series("edge.gz.ingest_ms"));
    row("capture->display, cross-campus", m.series("mr.cross_campus_ms"));
    row("capture->display, remote-origin", m.series("mr.remote_origin_ms"));
    row("capture->display, VR clients", m.series("vr.e2e_ms"));

    // Add the analytic render stage for a standalone MR headset drawing the
    // whole room.
    render::Scene scene;
    scene.add_avatars(avatar::LodLevel::Medium,
                      static_cast<std::uint32_t>(2 * students_per_room + 4));
    const render::FrameStats fs =
        render::simulate_frame(render::standalone_hmd_profile(), scene);
    const double display_p95 = m.series("mr.cross_campus_ms").p95();
    std::printf("%-36s %8.2f ms (frame %.2f ms @ %.0f fps)\n", "+render (standalone HMD)",
                fs.motion_to_photon_ms, fs.frame_time_ms, fs.achieved_fps);
    const double motion_to_photon_p95 = display_p95 + fs.motion_to_photon_ms;
    const std::string metric = std::string{label} + " / motion_to_photon_p95_ms";
    session.record(metric, motion_to_photon_p95);
    std::printf("%-36s %8.2f ms\n", "cross-campus motion-to-photon p95",
                motion_to_photon_p95);
    // "Users start to notice latency above 100 ms."
    session.gate({metric + ".max", {}, 100.0});
}

}  // namespace

int main() {
    bench::Session session{"e1"};
    session.set_seed(11);
    run_case(session, "small class", 6, 30.0);
    run_case(session, "full classroom", 14, 30.0);
    return session.finish();
}
