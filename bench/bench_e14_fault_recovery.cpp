// E14: fault recovery — time-to-detect, time-to-failover, staleness during
// the outage, and post-recovery convergence for the CWB<->GZ deployment.
//
// The world and the fault timeline are declared in
// scenarios/fault_recovery.scenario.json (preset CWB/GZ rooms, 2 students
// each, 50/200 ms heartbeat, degradation ladder, a 10 s edge link outage at
// 10 s and a 35% loss burst at 26 s). This bench only attaches the
// domain-specific probes and evaluates the recovery gates:
//
//   [ 0s,  5s)  warm-up (ignored)
//   [ 5s, 10s)  baseline            — healthy direct edge peering
//   [10s, 20s)  outage              — heartbeats detect the dead peer and both
//                                     edges reroute avatar streams through the
//                                     cloud relay
//   [20s, 26s)  recovery            — failback to the direct path
//   [26s, 34s)  loss burst          — the degradation ladder sheds rate/LOD
//   [34s, 42s)  degradation recovery — fidelity steps back up
//
// "Staleness" is sampled every 20 ms at the GZ edge: simulated time since the
// last decoded network update for the CWB student. During the outage it climbs
// until the first cloud-relayed update lands; its peak IS the failover gap.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.hpp"
#include "core/classroom.hpp"
#include "scenario/runner.hpp"

using namespace mvc;

namespace {

constexpr double kOutageStartS = 10.0;
constexpr double kOutageEndS = 20.0;
constexpr double kBurstStartS = 26.0;

struct Probe {
    // Staleness per phase.
    math::SampleSeries baseline_ms;
    math::SampleSeries outage_ms;
    math::SampleSeries recovery_ms;
    // Liveness transitions (absolute sim seconds; <0 = never observed).
    double detected_down_s{-1.0};
    double detected_up_s{-1.0};
    double converged_s{-1.0};
    int max_degradation{0};
};

}  // namespace

int main() {
    bench::Session session{"e14"};

    const scenario::ScenarioSpec spec = scenario::load_spec_file(
        std::string{METACLASS_SCENARIO_DIR} + "/fault_recovery.scenario.json");
    session.set_seed(spec.seed);

    const std::unique_ptr<scenario::ScenarioWorld> world = scenario::build(spec);
    core::MetaverseClassroom& classroom = world->classroom();
    auto& sim = classroom.simulator();
    auto& edge_cwb = classroom.edge_server(0);
    auto& edge_gz = classroom.edge_server(1);
    const net::NodeId edge0 = edge_cwb.node();
    // Spec rooms enrol students in room order, so participant 1 sits in CWB.
    const ParticipantId cwb_student{1};
    const sim::Time hb_interval = sim::Time::ms(50);
    const sim::Time hb_timeout = sim::Time::ms(200);

    std::printf("\nfault schedule (%s):\n%s", spec.name.c_str(),
                world->plan()->to_string().c_str());

    Probe probe;
    std::uint64_t last_count = 0;
    sim::Time last_update = sim::Time::zero();
    double baseline_p95_ms = 0.0;
    sim.schedule_every(sim::Time::ms(20), [&] {
        const sim::Time now = sim.now();
        const double now_s = now.to_seconds();
        const std::uint64_t count = edge_gz.remote_update_count(cwb_student);
        if (count != last_count) {
            last_count = count;
            last_update = now;
        }
        const double staleness_ms = (now - last_update).to_ms();

        if (now_s >= 5.0 && now_s < kOutageStartS) {
            probe.baseline_ms.add(staleness_ms);
        } else if (now_s >= kOutageStartS && now_s < kOutageEndS) {
            probe.outage_ms.add(staleness_ms);
            if (probe.detected_down_s < 0.0 && !edge_gz.peer_alive(edge0)) {
                probe.detected_down_s = now_s;
            }
        } else if (now_s >= kOutageEndS && now_s < kBurstStartS) {
            probe.recovery_ms.add(staleness_ms);
            if (probe.detected_up_s < 0.0 && edge_gz.peer_alive(edge0)) {
                probe.detected_up_s = now_s;
            }
            if (baseline_p95_ms == 0.0) baseline_p95_ms = probe.baseline_ms.p95();
            if (probe.converged_s < 0.0 &&
                staleness_ms <= std::max(baseline_p95_ms, 1.0) * 1.5) {
                probe.converged_s = now_s;
            }
        }
        probe.max_degradation =
            std::max(probe.max_degradation, edge_cwb.degradation_level());
    });

    world->run();

    const double timeout_ms = hb_timeout.to_ms();
    const double detect_ms = (probe.detected_down_s - kOutageStartS) * 1e3;
    const double failover_ms = probe.outage_ms.max();
    const double failback_detect_ms = (probe.detected_up_s - kOutageEndS) * 1e3;
    const double convergence_ms = (probe.converged_s - kOutageEndS) * 1e3;
    const double post_p95 = probe.recovery_ms.p95();

    std::printf("\nrecovery metrics (heartbeat %.0f ms interval / %.0f ms timeout):\n",
                hb_interval.to_ms(), timeout_ms);
    std::printf("  %-34s %10.1f ms\n", "time-to-detect (peer dead)", detect_ms);
    std::printf("  %-34s %10.1f ms\n", "time-to-failover (staleness peak)", failover_ms);
    std::printf("  %-34s %10.1f ms\n", "time-to-detect (peer back)", failback_detect_ms);
    std::printf("  %-34s %10.1f ms\n", "post-recovery convergence", convergence_ms);
    std::printf("\nstaleness of the CWB avatar as seen from GZ:\n");
    session.latency_row("baseline staleness", probe.baseline_ms);
    session.latency_row("outage staleness", probe.outage_ms);
    session.latency_row("recovery staleness", probe.recovery_ms);
    std::printf("\nfailover path usage:\n");
    std::printf("  edge relayed_out=%llu  cloud relayed_for_failover=%llu  "
                "failovers=%llu  failbacks=%llu\n",
                static_cast<unsigned long long>(edge_cwb.relayed_out()),
                static_cast<unsigned long long>(classroom.cloud_server().relayed_for_failover()),
                static_cast<unsigned long long>(edge_gz.heartbeat()->failovers()),
                static_cast<unsigned long long>(edge_gz.heartbeat()->failbacks()));
    std::printf("\ndegradation under the %.0f%% loss burst: max level %d, final level %d\n",
                35.0, probe.max_degradation, edge_cwb.degradation_level());

    session.record("detect_ms", detect_ms);
    session.record("failover_ms", failover_ms);
    session.record("failback_detect_ms", failback_detect_ms);
    session.record("convergence_ms", convergence_ms);
    session.record("degradation_max_level", probe.max_degradation);
    session.record("degradation_final_level", edge_cwb.degradation_level());
    session.count("relayed_out", edge_cwb.relayed_out());
    session.count("relayed_for_failover",
                  classroom.cloud_server().relayed_for_failover());

    session.record("recovery_p95_excess_ms",
                   post_p95 - std::max(baseline_p95_ms, 1.0) * 2.0);

    // The dead peer is detected within the heartbeat timeout. A transition the
    // probe never saw reads about -1e4 ms, below every min of 0 here.
    session.gate({"detect_ms.mean", 0.0, timeout_ms + hb_interval.to_ms() + 50.0});
    // Avatars keep flowing via the cloud relay during the outage.
    session.gate({"relayed_out", 1.0, {}});
    session.gate({"relayed_for_failover", 1.0, {}});
    // Staleness returns to baseline after failback: it converges, and the
    // post-recovery p95 stays within 2x baseline + 5 ms.
    session.gate({"convergence_ms.min", 0.0, {}});
    session.gate({"recovery_p95_excess_ms.max", {}, 5.0});
    // The loss burst degrades the ladder, which then fully recovers.
    session.gate({"degradation_max_level.min", 1.0, {}});
    session.gate({"degradation_final_level.max", {}, 0.0});

    world->stop();
    return session.finish();
}
