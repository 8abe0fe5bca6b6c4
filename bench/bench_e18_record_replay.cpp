// E18 — session record & deterministic replay: what recording costs on the
// hot path, what replay gives back, and whether the determinism contract
// actually holds end to end.
//
// The binary replaces global operator new/delete with the E17 counting hook,
// so the headline recording cost is a measured allocation count:
//  - section A: the Channel -> Network -> Link send path with and without a
//    Recorder tap attached — allocations per send while recording must stay
//    within the E17 steady-state budget (the tap stages varints into a
//    capacity-retained buffer; only flow interning and buffer high-water
//    growth ever allocate, and both amortize to zero);
//  - section B: a blended two-campus lecture run twice with recording on and
//    once without — wall-clock overhead %, trace bytes per simulated second,
//    and the record->rerun divergence gate (per-epoch state hashes byte-equal
//    across independent runs of the same seed);
//  - section C: offline lecture playback from the trace alone — speedup vs
//    realtime (must beat 1x) and reconstruction counts;
//  - section D: checkpoint-indexed seek latency as a function of the
//    recovery checkpoint interval (denser keyframes -> shorter fast-forward);
//  - section E: the sharded multi-region world (E16's
//    core::RegionalDeployment, 3 regions) recorded at 1/2/4 worker
//    threads — the state-hash streams (and, as measured fact, the trace
//    bytes) must be identical for every thread count.
//
// Exit code gates the CI replay stage (tools/ci.sh --replay).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/classroom.hpp"
#include "core/regional_deployment.hpp"
#include "net/channel.hpp"
#include "replay/divergence.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook (same shape as bench_e17_hotpath: unaligned family
// only, so every allocation is freed by the family that produced it).
namespace {
std::atomic<std::uint64_t> g_allocations{0};

[[nodiscard]] std::uint64_t allocations() {
    return g_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

using namespace mvc;

namespace {

constexpr std::uint64_t kSeed = 31;
/// Same steady-state budget the E17 hot-path gate uses.
constexpr double kAllocBudget = 0.01;

struct Measured {
    double ops_per_sec{0.0};
    double allocs_per_op{0.0};
    double wall_seconds{0.0};
};

template <class Fn>
Measured measure(std::size_t warmup, std::size_t ops, Fn&& op) {
    for (std::size_t i = 0; i < warmup; ++i) op(i);
    const std::uint64_t before = allocations();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i) op(warmup + i);
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    Measured m;
    m.wall_seconds = wall.count();
    m.ops_per_sec = wall.count() > 0.0 ? static_cast<double>(ops) / wall.count() : 0.0;
    m.allocs_per_op =
        static_cast<double>(allocations() - before) / static_cast<double>(ops);
    return m;
}

// --------------------------------------------------------------- B: lecture
struct LectureRun {
    double wall_seconds{0.0};           ///< run_for only (the recorded span)
    std::vector<std::uint8_t> trace;    ///< empty when not recording
    std::uint64_t wire_records{0};
    std::uint64_t avatar_updates{0};
};

/// The two-campus blended lecture both halves of the determinism gate run:
/// everything that shapes the event stream derives from (seed, duration,
/// checkpoint interval), so two calls are reruns of the same session.
LectureRun run_lecture(double sim_seconds, bool record, double checkpoint_s) {
    core::ClassroomConfig config;
    config.seed = kSeed;
    config.course = "bench-e18 lecture";
    config.recovery.enabled = true;
    config.recovery.checkpoint_interval = sim::Time::seconds(checkpoint_s);

    core::MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    for (int i = 0; i < 4; ++i) classroom.add_physical_student(0);
    for (int i = 0; i < 3; ++i) classroom.add_physical_student(1);
    classroom.add_remote_student(net::Region::Seoul);
    classroom.add_remote_student(net::Region::Boston);

    replay::MemorySink sink;
    std::optional<replay::Recorder> rec;
    if (record) {
        rec.emplace(sink, kSeed, "bench-e18 lecture", 0, replay::RecorderOptions{});
        classroom.enable_recording(*rec, sim::Time::ms(100));
    }
    classroom.start();
    const auto start = std::chrono::steady_clock::now();
    classroom.run_for(sim::Time::seconds(sim_seconds));
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    classroom.stop();

    LectureRun out;
    out.wall_seconds = wall.count();
    if (rec) {
        rec->finish();
        if (!rec->error().empty())
            throw std::runtime_error("recording failed: " + rec->error());
        out.wire_records = rec->wire_records();
        out.avatar_updates = rec->avatar_updates();
        out.trace = sink.take();
    }
    return out;
}

// --------------------------------------------------------------- E: sharded
/// E16's core::RegionalDeployment over 3 regions, recorded through the
/// ShardSet epoch observer. Returns the trace bytes.
std::vector<std::uint8_t> run_sharded(std::size_t clients, std::size_t threads,
                                      double sim_seconds) {
    core::RegionalDeployment deployment{
        {.regions = {net::Region::Seoul, net::Region::Tokyo, net::Region::London},
         .clients = clients,
         .seed = kSeed}};
    core::ShardedWorld& world = deployment.world();

    replay::MemorySink sink;
    replay::Recorder rec{sink, kSeed, "bench-e18 sharded", 0, replay::RecorderOptions{}};
    world.enable_recording(rec);
    world.run_until(sim::Time::seconds(sim_seconds), threads);
    rec.finish();
    if (!rec.error().empty())
        throw std::runtime_error("sharded recording failed: " + rec.error());
    return sink.take();
}

}  // namespace

int main() {
    bench::Session session{"e18"};
    session.set_seed(kSeed);

    const bool quick = std::getenv("E18_QUICK") != nullptr;
    const std::size_t sends = quick ? 50'000 : 400'000;
    const double lecture_s = quick ? 6.0 : 20.0;
    const double sharded_s = quick ? 1.5 : 4.0;
    const std::size_t sharded_clients = quick ? 12 : 48;

    // ------------------------------------------------ A: tap on the send path
    std::printf("\nA. send path, recording tap off vs on (empty payloads)\n");
    sim::Simulator csim{kSeed};
    net::Network cnet{csim};
    const net::NodeId a = cnet.add_node("a", net::Region::HongKong);
    const net::NodeId b = cnet.add_node("b", net::Region::HongKong);
    net::LinkParams lp;
    lp.latency = sim::Time::us(200);
    lp.queue_bytes = 64 * 1024 * 1024;
    cnet.connect(a, b, lp);
    cnet.set_handler(b, [](net::Packet&&) {});
    net::Channel tx = cnet.open_channel({.src = a, .flow = "avatar"});
    const auto send_op = [&](std::size_t) {
        tx.send_to(b, 120, net::Payload{});
        if (csim.pending_events() > 256) csim.run_until(csim.now() + sim::Time::ms(1));
    };
    const Measured untapped = measure(2'000, sends, send_op);

    replay::MemorySink tap_sink;
    replay::Recorder tap_rec{tap_sink, kSeed, "bench-e18 sendpath", 0,
                             replay::RecorderOptions{}};
    tap_rec.attach(cnet, 0);
    const std::uint64_t tap_bytes_before = tap_rec.bytes_written();
    const Measured tapped = measure(2'000, sends, [&](std::size_t i) {
        send_op(i);
        // Epoch-observer stand-in: drain the staging buffer periodically so
        // the writer/chunk cost is part of the measured recording price.
        if ((i & 1023) == 0) tap_rec.drain(0);
    });
    tap_rec.drain(0);
    const double tap_mb_per_s =
        tapped.wall_seconds > 0.0
            ? static_cast<double>(tap_rec.bytes_written() - tap_bytes_before) /
                  tapped.wall_seconds / 1e6
            : 0.0;
    tap_rec.finish();
    const double send_overhead_pct =
        tapped.ops_per_sec > 0.0
            ? (untapped.ops_per_sec / tapped.ops_per_sec - 1.0) * 100.0
            : 0.0;
    std::printf("%-34s %14.0f sends/s %10.3f allocs/send\n", "tap off",
                untapped.ops_per_sec, untapped.allocs_per_op);
    std::printf("%-34s %14.0f sends/s %10.3f allocs/send  (%.1f%% slower, "
                "%.1f MB/s staged)\n",
                "tap on (recording)", tapped.ops_per_sec, tapped.allocs_per_op,
                send_overhead_pct, tap_mb_per_s);
    session.timing("A untapped / sends_per_sec", untapped.ops_per_sec);
    session.record("A untapped / allocs_per_send", untapped.allocs_per_op);
    session.timing("A tapped / sends_per_sec", tapped.ops_per_sec);
    session.record("A tapped / allocs_per_send", tapped.allocs_per_op);
    session.timing("A tapped / overhead_pct", send_overhead_pct);
    session.timing("A tapped / staged_mb_per_sec", tap_mb_per_s);

    // ------------------------------------------- B: end-to-end lecture + gate
    std::printf("\nB. blended lecture (%.0f sim s), recording off vs on\n", lecture_s);
    const LectureRun plain = run_lecture(lecture_s, false, 2.0);
    const LectureRun rec1 = run_lecture(lecture_s, true, 2.0);
    const LectureRun rec2 = run_lecture(lecture_s, true, 2.0);
    const double lecture_overhead_pct =
        plain.wall_seconds > 0.0
            ? (rec1.wall_seconds / plain.wall_seconds - 1.0) * 100.0
            : 0.0;
    std::printf("recording off: %.3f wall-s; on: %.3f wall-s (%.1f%% overhead)\n",
                plain.wall_seconds, rec1.wall_seconds, lecture_overhead_pct);
    std::printf("trace: %zu bytes (%.0f B per sim-s), %llu wire records, %llu "
                "avatar updates\n",
                rec1.trace.size(), static_cast<double>(rec1.trace.size()) / lecture_s,
                static_cast<unsigned long long>(rec1.wire_records),
                static_cast<unsigned long long>(rec1.avatar_updates));
    const replay::Trace trace1 = replay::Trace::parse(rec1.trace);
    const replay::Trace trace2 = replay::Trace::parse(rec2.trace);
    const replay::Divergence rerun_div = replay::diff_state_hashes(trace1, trace2);
    const bool rerun_bytes_equal = rec1.trace == rec2.trace;
    std::printf("record->rerun: %llu hashes compared, diverged=%s, "
                "trace bytes equal=%s\n",
                static_cast<unsigned long long>(rerun_div.compared),
                rerun_div.diverged ? "YES" : "no", rerun_bytes_equal ? "yes" : "NO");
    if (rerun_div.diverged) std::printf("  %s\n", rerun_div.detail.c_str());
    session.timing("B recording_off / wall_seconds", plain.wall_seconds);
    session.timing("B recording_on / wall_seconds", rec1.wall_seconds);
    session.timing("B recording_on / overhead_pct", lecture_overhead_pct);
    session.record("B trace / bytes", static_cast<double>(rec1.trace.size()));
    session.record("B trace / bytes_per_sim_sec",
                   static_cast<double>(rec1.trace.size()) / lecture_s);
    session.record("B rerun / hashes_compared",
                   static_cast<double>(rerun_div.compared));
    session.count("B rerun / bytes_equal", rerun_bytes_equal ? 1 : 0);
    session.count("B rerun / divergences", rerun_div.diverged ? 1 : 0);

    // ----------------------------------------------------- C: replay speedup
    std::printf("\nC. offline playback from the trace alone\n");
    replay::Replayer player{trace1};
    const auto replay_start = std::chrono::steady_clock::now();
    player.play_all(0.0);
    const std::chrono::duration<double> replay_wall =
        std::chrono::steady_clock::now() - replay_start;
    const double replay_speedup =
        replay_wall.count() > 0.0 ? lecture_s / replay_wall.count() : 0.0;
    std::printf("replayed %.0f sim s in %.3f wall-s (%.0fx realtime): %llu "
                "packets, %llu avatar updates, %zu participants\n",
                lecture_s, replay_wall.count(), replay_speedup,
                static_cast<unsigned long long>(player.stats().wire_packets),
                static_cast<unsigned long long>(player.stats().avatar_updates),
                player.participants().size());
    session.timing("C replay / wall_seconds", replay_wall.count());
    session.timing("C replay / speedup_vs_realtime", replay_speedup);
    session.count("C replay / participants", player.participants().size());

    // ------------------------------------- D: seek latency vs keyframe cadence
    std::printf("\nD. seek latency vs checkpoint interval (target: 75%% mark)\n");
    const double intervals_s[] = {1.0, 2.0, 4.0};
    for (const double interval : intervals_s) {
        const LectureRun run = run_lecture(lecture_s, true, interval);
        const replay::Trace t = replay::Trace::parse(run.trace);
        const sim::Time target = sim::Time::seconds(0.75 * lecture_s);
        // Mean of 3 cold seeks (fresh replayer each: no warm cursor to lean on).
        double total_ms = 0.0;
        for (int i = 0; i < 3; ++i) {
            replay::Replayer p{t};
            const auto s0 = std::chrono::steady_clock::now();
            p.seek(target);
            const std::chrono::duration<double> w =
                std::chrono::steady_clock::now() - s0;
            total_ms += w.count() * 1e3;
        }
        const double mean_ms = total_ms / 3.0;
        std::printf("  checkpoint every %.0f s: %zu keyframes, seek %.2f ms\n",
                    interval, t.checkpoint_index().size(), mean_ms);
        char label[64];
        std::snprintf(label, sizeof label, "D seek / interval_%.0fs_ms", interval);
        session.timing(label, mean_ms);
    }

    // ---------------------------------------- E: sharded any-thread-count gate
    std::printf("\nE. sharded world recorded at 1/2/4 threads (%zu clients)\n",
                sharded_clients);
    const std::vector<std::uint8_t> sharded1 =
        run_sharded(sharded_clients, 1, sharded_s);
    const replay::Trace sharded_t1 = replay::Trace::parse(sharded1);
    std::uint64_t sharded_divergences = 0;
    bool sharded_bytes_equal = true;
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
        const std::vector<std::uint8_t> other =
            run_sharded(sharded_clients, threads, sharded_s);
        const replay::Divergence d =
            replay::diff_state_hashes(sharded_t1, replay::Trace::parse(other));
        sharded_divergences += d.diverged ? 1 : 0;
        sharded_bytes_equal = sharded_bytes_equal && other == sharded1;
        std::printf("  %zu threads vs 1: %llu hashes, diverged=%s, bytes equal=%s\n",
                    threads, static_cast<unsigned long long>(d.compared),
                    d.diverged ? "YES" : "no",
                    other == sharded1 ? "yes" : "NO");
        if (d.diverged) std::printf("    %s\n", d.detail.c_str());
    }
    session.count("E sharded / divergences", sharded_divergences);
    session.count("E sharded / trace_bytes_identical", sharded_bytes_equal ? 1 : 0);

    // ------------------------------------------------------------------ gates
    // Recording stays within the hot path's steady-state allocation budget.
    session.gate({"A tapped / allocs_per_send.max", {}, kAllocBudget});
    // A record->rerun of the lecture compares state hashes and finds them equal.
    session.gate({"B rerun / hashes_compared.min", 1.0, {}});
    session.gate({"B rerun / divergences", {}, 0.0});
    // Offline replay runs faster than realtime.
    session.gate({"C replay / speedup_vs_realtime.min", 1.0, {}});
    // The sharded world's hashes are identical for any thread count.
    session.gate({"E sharded / divergences", {}, 0.0});
    return session.finish();
}
