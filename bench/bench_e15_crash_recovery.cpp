// E15: crash recovery + overload admission — checkpointed restart vs a cold
// (no-checkpoint) baseline, and hysteresis load shedding on the avatar
// ingress.
//
// Part A runs the same CWB<->GZ lecture twice with the same seed; the only
// difference is whether the crashed GZ edge can restore from its periodic
// checkpoints (+ one-round-trip peer resync) or must restart cold:
//
//   [ 0s, 10s)  lecture — both rooms streaming, content contributed,
//               checkpoints every 2 s (checkpointed mode)
//   [10s, 13s)  GZ edge process crash (FaultPlan node outage): its volatile
//               replicated state — remote replicas, seat assignments,
//               reservations, ingress queue — is wiped
//   [13s, 20s)  restart: checkpointed mode restores seats/membership/content
//               and re-ingests replica references immediately, then resyncs
//               live peers; the cold baseline waits for the peers' next
//               keyframes before remote avatars re-appear
//
// Part B is a two-node overload rig: established avatar streams fill the
// service capacity, late joiners at t=5s push the bounded drop-oldest
// ingress past the shed threshold, and the hysteresis admission gate sheds
// the newcomers — once, with no flapping — while admitted streams keep
// bounded staleness.
//
// All scheduling is deterministic; two runs of the same binary produce
// byte-identical BENCH_e15.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/classroom.hpp"
#include "fault/fault_plan.hpp"
#include "sync/wire.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

using namespace mvc;

namespace {

constexpr double kCrashStartS = 10.0;
constexpr double kCrashEndS = 13.0;
constexpr double kRunS = 20.0;

struct CrashResult {
    /// First decoded remote update at the GZ edge after restart, ms from the
    /// node-up instant (probe granularity 10 ms); <0 = never restored.
    double time_to_restore_ms{-1.0};
    /// Age of the restored checkpoint (downtime + checkpoint staleness).
    double recovery_gap_ms{-1.0};
    double baseline_staleness_p95_ms{0.0};
    double post_staleness_p95_ms{0.0};
    std::uint64_t restores{0};
    std::uint64_t cold_starts{0};
    std::size_t restored_members{0};
    std::size_t restored_content{0};
    std::size_t restored_replicas{0};
    std::size_t restored_seats{0};
    bool seat_kept{false};
    std::uint64_t checkpoints_taken{0};
    std::uint64_t checkpoint_bytes{0};
    std::size_t live_roster{0};
    std::size_t live_content{0};
};

CrashResult run_crash_case(bool checkpointed) {
    core::ClassroomConfig config;
    config.seed = 21;
    config.heartbeat.enabled = true;
    config.heartbeat.interval = sim::Time::ms(50);
    config.heartbeat.timeout = sim::Time::ms(200);
    config.recovery.enabled = true;
    config.recovery.checkpoints = checkpointed;
    config.recovery.resync = checkpointed;
    config.recovery.checkpoint_interval = sim::Time::seconds(2.0);
    // Sparse keyframes make the cold restart visibly wait for re-anchoring.
    config.rooms = {core::cwb_room_config(), core::gz_room_config()};
    for (auto& room : config.rooms) {
        room.edge.replication.keyframe_interval = sim::Time::seconds(2.0);
    }
    core::MetaverseClassroom classroom{config};
    const ParticipantId cwb_student = classroom.add_physical_student(0);
    classroom.add_physical_student(0);
    classroom.add_physical_student(1);
    classroom.add_physical_student(1);

    // Contributed content rides along in the checkpoint via the session
    // decorator; a restored edge hands back the full ledger.
    for (int i = 0; i < 3; ++i) {
        session::ContentItem item;
        item.creator = cwb_student;
        item.kind = session::ContentKind::Slide;
        item.title = "lecture-slide-" + std::to_string(i);
        item.size_bytes = 64 * 1024;
        classroom.class_session().contribute(std::move(item));
    }
    classroom.start();

    auto& sim = classroom.simulator();
    auto& edge_gz = classroom.edge_server(1);

    fault::FaultPlan plan{classroom.network()};
    plan.node_outage(edge_gz.node(), sim::Time::seconds(kCrashStartS),
                     sim::Time::seconds(kCrashEndS - kCrashStartS));
    plan.arm();

    CrashResult r;
    const auto seat_before = [&] {
        return edge_gz.seats().seat_of(cwb_student);
    };
    std::optional<std::size_t> pre_crash_seat;
    math::SampleSeries baseline_ms;
    math::SampleSeries post_ms;
    std::uint64_t last_count = 0;
    sim::Time last_update = sim::Time::zero();
    sim.schedule_every(sim::Time::ms(10), [&] {
        const sim::Time now = sim.now();
        const double now_s = now.to_seconds();
        const std::uint64_t count = edge_gz.remote_update_count(cwb_student);
        if (count != last_count && count > 0) {
            last_count = count;
            last_update = now;
            if (r.time_to_restore_ms < 0.0 && now_s >= kCrashEndS) {
                r.time_to_restore_ms = (now_s - kCrashEndS) * 1e3;
            }
        }
        const double staleness_ms = (now - last_update).to_ms();
        if (now_s >= 5.0 && now_s < kCrashStartS) {
            pre_crash_seat = seat_before();
            baseline_ms.add(staleness_ms);
        } else if (now_s >= kCrashEndS + 1.0) {
            post_ms.add(staleness_ms);
        }
    });

    classroom.run_for(sim::Time::seconds(kRunS));

    r.baseline_staleness_p95_ms = baseline_ms.p95();
    r.post_staleness_p95_ms = post_ms.p95();
    r.restores = edge_gz.restores();
    r.cold_starts = edge_gz.cold_starts();
    if (edge_gz.last_restored().has_value()) {
        const recovery::ClassroomCheckpoint& cp = *edge_gz.last_restored();
        r.recovery_gap_ms = edge_gz.last_recovery_gap_ms();
        r.restored_members = cp.members.size();
        r.restored_content = cp.content.size();
        r.restored_replicas = cp.replicas.size();
        r.restored_seats = cp.seats.size();
    }
    r.seat_kept = pre_crash_seat.has_value() && seat_before() == pre_crash_seat;
    r.checkpoints_taken = classroom.checkpoint_store().total_puts();
    r.checkpoint_bytes = classroom.checkpoint_store().bytes_stored("edge-gz");
    r.live_roster = classroom.class_session().roster().size();
    r.live_content = classroom.class_session().ledger().size();
    classroom.stop();
    return r;
}

struct OverloadResult {
    std::uint64_t shed{0};
    std::uint64_t transitions{0};
    std::uint64_t queue_dropped{0};
    std::size_t final_depth{0};
    std::size_t capacity{0};
    std::uint64_t admitted_updates{0};
    double admitted_staleness_p95_ms{0.0};
    bool shedding_at_end{false};
};

OverloadResult run_overload_case() {
    sim::Simulator sim{21};
    net::Network net{sim};
    net::WanTopology wan;
    const net::NodeId src = net.add_node("edge-src", net::Region::HongKong);
    const net::NodeId dst = net.add_node("edge-dst", net::Region::Guangzhou);
    net.connect_wan(src, dst, wan);

    edge::EdgeServerConfig config;
    config.room = ClassroomId{2};
    config.name = "dst";
    config.process_time = sim::Time::ms(2);  // service capacity: 500 wires/s
    config.admission.enabled = true;
    config.admission.queue_capacity = 32;
    config.admission.shed_enter_depth = 24;
    config.admission.shed_exit_depth = 4;
    config.admission.hold = sim::Time::ms(200);
    edge::EdgeServer server{net, dst, config, edge::SeatMap::grid(6, 6)};
    server.start();

    // Every wire is a keyframe (I-frame-only stream): each admitted arrival
    // is decodable, so replica update counts measure delivered throughput.
    avatar::AvatarCodec codec{avatar::CodecBounds{}};
    const auto send_update = [&](std::uint32_t id) {
        const double t = sim.now().to_seconds();
        avatar::AvatarState s;
        s.participant = ParticipantId{id};
        s.root.pose.position = {std::cos(t + id), 0.0, 2.0 + std::sin(t + id)};
        s.body.head = {s.root.pose.position + math::Vec3{0, 0.65, 0},
                       s.root.pose.orientation};
        s.captured_at = sim.now();
        sync::AvatarWire wire;
        wire.participant = s.participant;
        wire.source_room = ClassroomId{1};
        wire.keyframe = true;
        wire.bytes = codec.encode_full(s);
        wire.captured_at = s.captured_at;
        const std::size_t size = wire.bytes.size() + 32;
        net.send(src, dst, size, std::string{sync::kAvatarFlow}, std::move(wire));
    };

    // 8 established streams from t=0, then 16 late joiners trickling in from
    // t=5s (one every 100 ms), all at 60 Hz. 8 streams fit the 500/s service
    // rate; the first few late arrivals tip the queue into overload, the
    // gate trips after its hold, and the remaining newcomers are shed.
    constexpr std::uint32_t kEstablished = 8;
    constexpr std::uint32_t kLate = 16;
    const sim::Time tick = sim::Time::us(16667);
    for (std::uint32_t i = 0; i < kEstablished; ++i) {
        sim.schedule_every(tick, sim::Time::ms(1 + i), [&send_update, i] {
            send_update(100 + i);
        });
    }
    for (std::uint32_t i = 0; i < kLate; ++i) {
        sim.schedule_at(sim::Time::seconds(5.0) + sim::Time::ms(100 * i), [&, i] {
            send_update(200 + i);
            sim.schedule_every(tick, [&send_update, i] { send_update(200 + i); });
        });
    }

    // Staleness of one established stream, sampled through the overload.
    math::SampleSeries admitted_staleness_ms;
    std::uint64_t last_count = 0;
    sim::Time last_update = sim::Time::zero();
    sim.schedule_every(sim::Time::ms(10), [&] {
        const std::uint64_t count = server.remote_update_count(ParticipantId{100});
        if (count != last_count) {
            last_count = count;
            last_update = sim.now();
        }
        if (sim.now() >= sim::Time::seconds(6.0)) {
            admitted_staleness_ms.add((sim.now() - last_update).to_ms());
        }
    });

    sim.run_until(sim::Time::seconds(12.0));

    OverloadResult r;
    r.shed = server.shed_streams();
    r.transitions = server.admission_gate().transitions();
    r.queue_dropped = server.queue_dropped();
    r.final_depth = server.ingress_depth();
    r.capacity = config.admission.queue_capacity;
    r.admitted_updates = last_count;
    r.admitted_staleness_p95_ms = admitted_staleness_ms.p95();
    r.shedding_at_end = server.admission_gate().shedding();
    server.stop();
    return r;
}

}  // namespace

int main() {
    bench::Session session{"e15"};
    session.set_seed(21);

    std::printf("\n--- part A: GZ edge crash at %.0fs, restart at %.0fs (seed 21) ---\n",
                kCrashStartS, kCrashEndS);
    const CrashResult ckpt = run_crash_case(/*checkpointed=*/true);
    const CrashResult cold = run_crash_case(/*checkpointed=*/false);

    std::printf("\n%-38s %14s %14s\n", "metric", "checkpointed", "no-checkpoint");
    std::printf("%-38s %14.1f %14.1f\n", "time-to-restore (ms)", ckpt.time_to_restore_ms,
                cold.time_to_restore_ms);
    std::printf("%-38s %14.1f %14s\n", "recovery gap (ms)", ckpt.recovery_gap_ms, "-");
    std::printf("%-38s %14.1f %14.1f\n", "baseline staleness p95 (ms)",
                ckpt.baseline_staleness_p95_ms, cold.baseline_staleness_p95_ms);
    std::printf("%-38s %14.1f %14.1f\n", "post-restart staleness p95 (ms)",
                ckpt.post_staleness_p95_ms, cold.post_staleness_p95_ms);
    std::printf("%-38s %8llu/%-5llu %8llu/%-5llu\n", "restores/cold starts",
                static_cast<unsigned long long>(ckpt.restores),
                static_cast<unsigned long long>(ckpt.cold_starts),
                static_cast<unsigned long long>(cold.restores),
                static_cast<unsigned long long>(cold.cold_starts));
    std::printf("%-38s %14zu %14s\n", "restored members", ckpt.restored_members, "-");
    std::printf("%-38s %14zu %14s\n", "restored content items", ckpt.restored_content,
                "-");
    std::printf("%-38s %14zu %14s\n", "restored avatar replicas",
                ckpt.restored_replicas, "-");
    std::printf("%-38s %14s %14s\n", "seat retained across crash",
                ckpt.seat_kept ? "yes" : "no", cold.seat_kept ? "yes" : "no");
    std::printf("%-38s %14llu %14s\n", "checkpoints taken",
                static_cast<unsigned long long>(ckpt.checkpoints_taken), "-");
    std::printf("%-38s %14llu %14s\n", "checkpoint bytes stored",
                static_cast<unsigned long long>(ckpt.checkpoint_bytes), "-");

    std::printf("\n--- part B: overload admission on the avatar ingress ---\n");
    const OverloadResult ov = run_overload_case();
    std::printf("  shed stream updates       %10llu\n",
                static_cast<unsigned long long>(ov.shed));
    std::printf("  gate transitions          %10llu  (1 = entered shed once, no flap)\n",
                static_cast<unsigned long long>(ov.transitions));
    std::printf("  drop-oldest queue drops   %10llu\n",
                static_cast<unsigned long long>(ov.queue_dropped));
    std::printf("  final queue depth         %10zu  (capacity %zu)\n", ov.final_depth,
                ov.capacity);
    std::printf("  admitted stream updates   %10llu\n",
                static_cast<unsigned long long>(ov.admitted_updates));
    std::printf("  admitted staleness p95    %10.1f ms (under overload)\n",
                ov.admitted_staleness_p95_ms);

    session.record("ckpt_time_to_restore_ms", ckpt.time_to_restore_ms);
    session.record("cold_time_to_restore_ms", cold.time_to_restore_ms);
    session.record("ckpt_recovery_gap_ms", ckpt.recovery_gap_ms);
    session.record("ckpt_post_staleness_p95_ms", ckpt.post_staleness_p95_ms);
    session.record("cold_post_staleness_p95_ms", cold.post_staleness_p95_ms);
    session.record("ckpt_restored_members", static_cast<double>(ckpt.restored_members));
    session.record("ckpt_restored_content", static_cast<double>(ckpt.restored_content));
    session.record("ckpt_restored_replicas",
                   static_cast<double>(ckpt.restored_replicas));
    session.count("ckpt_checkpoints_taken", ckpt.checkpoints_taken);
    session.count("ckpt_checkpoint_bytes", ckpt.checkpoint_bytes);
    session.count("overload_shed", ov.shed);
    session.count("overload_gate_transitions", ov.transitions);
    session.count("overload_queue_dropped", ov.queue_dropped);
    session.count("overload_admitted_updates", ov.admitted_updates);
    session.record("overload_admitted_staleness_p95_ms", ov.admitted_staleness_p95_ms);

    session.count("ckpt_restores", ckpt.restores);
    session.count("ckpt_cold_starts", ckpt.cold_starts);
    session.count("cold_restores", cold.restores);
    session.count("cold_cold_starts", cold.cold_starts);
    session.record("restore_speedup_ms", cold.time_to_restore_ms - ckpt.time_to_restore_ms);
    session.record("ckpt_members_unrestored",
                   static_cast<double>(ckpt.live_roster) - ckpt.restored_members);
    session.record("ckpt_content_unrestored",
                   static_cast<double>(ckpt.live_content) - ckpt.restored_content);
    session.count("ckpt_seat_kept", ckpt.seat_kept ? 1 : 0);
    session.record("ckpt_post_staleness_excess_ms",
                   ckpt.post_staleness_p95_ms -
                       std::max(ckpt.baseline_staleness_p95_ms, 1.0) * 2.0);
    session.record("overload_queue_headroom",
                   static_cast<double>(ov.capacity) - ov.final_depth);

    // The checkpointed restart restores; the baseline starts cold.
    session.gate({"ckpt_restores", 1.0, 1.0});
    session.gate({"ckpt_cold_starts", {}, 0.0});
    session.gate({"cold_restores", {}, 0.0});
    session.gate({"cold_cold_starts", 1.0, 1.0});
    // Both restore (a never-restored run reads -1 ms), the checkpointed one
    // faster.
    session.gate({"ckpt_time_to_restore_ms.min", 0.0, {}});
    session.gate({"cold_time_to_restore_ms.min", 0.0, {}});
    session.gate({"restore_speedup_ms.min", 0.0, {}});
    // Recovery gap = downtime + checkpoint age (at most one 2 s interval).
    const double downtime_ms = (kCrashEndS - kCrashStartS) * 1e3;
    session.gate({"ckpt_recovery_gap_ms.mean", downtime_ms, downtime_ms + 2000.0 + 1.0});
    // Membership, content, both replicas and the seat are restored.
    session.gate({"ckpt_members_unrestored.mean", 0.0, 0.0});
    session.gate({"ckpt_content_unrestored.mean", 0.0, 0.0});
    session.gate({"ckpt_restored_replicas.mean", 2.0, 2.0});
    session.gate({"ckpt_seat_kept", 1.0, {}});
    // Post-restart staleness converges: p95 within 2x baseline + 5 ms.
    session.gate({"ckpt_post_staleness_excess_ms.max", {}, 5.0});
    // Overload sheds late joiners while admitted streams stay bounded.
    session.gate({"overload_shed", 1.0, {}});
    session.gate({"overload_admitted_updates", 1.0, {}});
    session.gate({"overload_queue_headroom.min", 0.0, {}});
    session.gate({"overload_admitted_staleness_p95_ms.max", {}, 250.0});
    // The admission gate holds without flapping.
    session.gate({"overload_gate_transitions", {}, 2.0});
    return session.finish();
}
