// E17 — allocation-free hot path: interned metric handles and pooled
// simulator events versus the string-keyed / std::function baseline.
//
// The binary replaces global operator new/delete with a counting hook, so
// every figure below is a measured allocation count, not an estimate:
//  - section A: labeled metric recording through the string API (canonical
//    key built per call) vs a pre-resolved MetricId (one indexed add);
//  - section B: the Simulator event loop (SBO callbacks + pooled overflow
//    blocks in the slot/generation timer queue) vs an in-bench reference
//    loop using the old design (std::function events, priority_queue with
//    copy-out top, unordered_set liveness) on the same self-rescheduling
//    workload; then timer churn (64 periodic chains, each tick arming a
//    one-shot and cancelling the previous one) and the WallClock path (arm,
//    cancel, run_due), which must both make exactly zero allocations;
//  - section C: the full Channel -> Network -> Link -> deliver packet path,
//    allocations per send in steady state;
//  - section D: E16's sharded sweep (core::RegionalDeployment: origin + 6
//    regional relays + VR clients) timed end to end, so the sweep wall time
//    is tracked in the same artifact;
//  - section E: flat interest-grid queries through the _into overloads on a
//    committed grid — the E22 per-tick census path — which must stay inside
//    the same steady-state allocation budget;
//  - section F: a small cell-aggregated CampusWorld (pool sweep, grid,
//    aggregator, batcher, viewer delivery) after warm-up, allocations per
//    update and per batch delivered to a viewer — the campus egress path
//    with its avatar records stored inline and each batch sized once;
//  - section G: a small blended classroom (headsets and room cameras ->
//    edge fusion -> cloud -> relays -> VR clients) after warm-up,
//    allocations per delivered avatar update — the sensing-to-client path
//    with its expression channels inline and its jitter buffers rings.
//
// Exit code gates the perf CI stage: steady-state allocations/event must
// stay within a small budget, the pooled loop must allocate at least 5x
// less than the reference loop, timer churn and WallClock timers must not
// allocate at all, the campus must stay within its per-update and per-batch
// budgets, and the classroom within its per-update budget.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/campus.hpp"
#include "core/classroom.hpp"
#include "core/regional_deployment.hpp"
#include "net/channel.hpp"
#include "net/network.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/wall_clock.hpp"
#include "sync/interest.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook. Replaces the unaligned new/delete family for the
// whole binary; the aligned family is left untouched so every allocation is
// freed by the same family that produced it. Relaxed atomics: sections A-C
// are single-threaded, and section D only reads the counter around the run.
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
// Every operator new above returns malloc'd memory, so free() is the matching
// release; gcc cannot see through the replaced operator new and warns where
// an inlined delete frees a pointer a library `new` returned.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

using namespace mvc;

namespace {

constexpr std::uint64_t kSeed = 29;
/// CI gate: steady-state allocations per event/send on the reworked path.
constexpr double kAllocBudget = 0.01;
/// CI gate: steady-state allocations per delivered campus update (section F).
/// What remains is per batch and per flush, not per update.
constexpr double kCampusAllocBudget = 0.1;
/// CI gate: steady-state allocations per delivered viewer batch (section F).
/// A batch's update vector is allocated once at its final size; the rest is
/// the payload box and the flush's per-packet work.
constexpr double kCampusBatchAllocBudget = 4.0;
/// CI gate: steady-state allocations per avatar update delivered in the
/// blended classroom (section G). Payload boxes come from per-thread free
/// lists, and one box carries each update from its publisher to every
/// receiver; what remains is mostly the one spill of each published
/// record too long for its inline bytes.
constexpr double kClassroomAllocBudget = 0.2;

struct Measured {
    double ops_per_sec{0.0};
    double allocs_per_op{0.0};
};

/// Run `op` for `warmup` iterations (pools fill, vectors grow, strings
/// intern), then measure `ops` iterations.
template <class Fn>
Measured measure(std::size_t warmup, std::size_t ops, Fn&& op) {
    for (std::size_t i = 0; i < warmup; ++i) op(i);
    const std::uint64_t before = allocations();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i) op(warmup + i);
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    Measured m;
    m.ops_per_sec = wall.count() > 0.0 ? static_cast<double>(ops) / wall.count() : 0.0;
    m.allocs_per_op = static_cast<double>(allocations() - before) / static_cast<double>(ops);
    return m;
}

void print_row(const char* label, const Measured& m) {
    std::printf("%-34s %14.0f ops/s %12.3f allocs/op\n", label, m.ops_per_sec,
                m.allocs_per_op);
}

// ------------------------------------------------------------- section B ref
// Reference event loop with the pre-rework design: type-erased std::function
// callbacks, a priority_queue whose const top() forces a copy-out, and an
// unordered_set tracking live event ids (one node allocation per event).
class LegacyLoop {
public:
    using Fn = std::function<void()>;

    std::uint64_t schedule_at(sim::Time at, Fn fn) {
        const std::uint64_t id = next_id_++;
        queue_.push(Ev{at, next_seq_++, id, std::move(fn)});
        live_.insert(id);
        return id;
    }

    [[nodiscard]] sim::Time now() const { return now_; }

    std::size_t run_until(sim::Time until) {
        std::size_t executed = 0;
        while (!queue_.empty() && !(until < queue_.top().at)) {
            Ev ev = queue_.top();  // const top: copies the std::function
            queue_.pop();
            if (live_.erase(ev.id) == 0) continue;
            now_ = ev.at;
            ev.fn();
            ++executed;
        }
        now_ = until;
        return executed;
    }

private:
    struct Ev {
        sim::Time at;
        std::uint64_t seq;
        std::uint64_t id;
        Fn fn;
    };
    struct Later {
        bool operator()(const Ev& a, const Ev& b) const {
            if (a.at.nanos() != b.at.nanos()) return b.at < a.at;
            return a.seq > b.seq;
        }
    };

    sim::Time now_{};
    std::uint64_t next_seq_{1};
    std::uint64_t next_id_{1};
    std::priority_queue<Ev, std::vector<Ev>, Later> queue_;
    std::unordered_set<std::uint64_t> live_;
};

/// Per-event state mirroring a server tick: big enough (80 B) that the
/// callback overflows EventFn's inline buffer into the pool, and would
/// overflow std::function's SBO in the reference loop.
struct TickState {
    std::array<std::uint64_t, 10> acc{};
};

/// Self-rescheduling chains of `sessions` parallel tickers on `loop`, until
/// `target` events ran. Drives both loops through the same code shape.
template <class Loop>
struct ChainDriver {
    Loop& loop;
    std::uint64_t executed{0};
    std::uint64_t target;

    void arm_small(sim::Time at) {
        loop.schedule_at(at, [this] {
            ++executed;
            if (executed < target) arm_small(loop.now() + sim::Time::us(100));
        });
    }
    void arm_large(sim::Time at, TickState state) {
        loop.schedule_at(at, [this, state] {
            ++executed;
            if (executed < target)
                arm_large(loop.now() + sim::Time::us(100), state);
        });
    }
};

template <class Loop>
Measured run_event_loop(std::size_t sessions, std::uint64_t warmup_events,
                        std::uint64_t events, bool large_capture) {
    Loop loop{};
    ChainDriver<Loop> driver{loop, 0, warmup_events + events};
    for (std::size_t s = 0; s < sessions; ++s) {
        const sim::Time at = sim::Time::us(100 + s);
        if (large_capture) {
            driver.arm_large(at, TickState{});
        } else {
            driver.arm_small(at);
        }
    }
    // Advance in small slices so the warmup/measure boundary lands within a
    // few thousand events of its target (the chains stop re-arming once
    // `target` is reached, so a coarse horizon would burn the whole workload
    // inside one run_until call).
    const sim::Time slice = sim::Time::ms(10);
    sim::Time horizon = slice;
    // Warmup: pools fill and the queue vector reaches steady size.
    while (driver.executed < warmup_events) {
        loop.run_until(horizon);
        horizon = horizon + slice;
    }
    const std::uint64_t before_allocs = allocations();
    const std::uint64_t before_events = driver.executed;
    const auto start = std::chrono::steady_clock::now();
    while (driver.executed < warmup_events + events) {
        loop.run_until(horizon);
        horizon = horizon + slice;
    }
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    const std::uint64_t ran = driver.executed - before_events;
    Measured m;
    m.ops_per_sec = wall.count() > 0.0 ? static_cast<double>(ran) / wall.count() : 0.0;
    m.allocs_per_op =
        static_cast<double>(allocations() - before_allocs) / static_cast<double>(ran);
    return m;
}

// Simulator needs a seed; give both loop types a uniform factory shape.
struct PooledLoop : sim::Simulator {
    PooledLoop() : sim::Simulator(kSeed) {}
};

struct ChurnResult {
    std::uint64_t events{0};
    std::uint64_t allocations{0};
    double events_per_sec{0.0};
};

/// `chains` periodic timers on one Simulator; each tick cancels the one-shot
/// its chain armed the tick before and arms a new one 1 ms out, so every
/// one-shot is cancelled and leaves a stale queue entry behind. Counts the
/// allocations made over `events` chain ticks after `warmup_events`.
ChurnResult run_timer_churn(std::size_t chains, std::uint64_t warmup_events,
                            std::uint64_t events) {
    sim::Simulator sim{kSeed};
    std::vector<sim::EventHandle> armed(chains);
    for (std::size_t c = 0; c < chains; ++c) {
        sim.schedule_every(sim::Time::us(100), sim::Time::us(static_cast<std::int64_t>(c) + 1),
                           [&sim, &armed, c] {
                               sim.cancel(armed[c]);
                               armed[c] = sim.schedule_after(sim::Time::ms(1), [] {});
                           });
    }
    const sim::Time slice = sim::Time::ms(10);
    sim::Time horizon = slice;
    while (sim.executed_events() < warmup_events) {
        sim.run_until(horizon);
        horizon = horizon + slice;
    }
    const std::uint64_t before_allocs = allocations();
    const std::size_t before_events = sim.executed_events();
    const auto start = std::chrono::steady_clock::now();
    while (sim.executed_events() < warmup_events + events) {
        sim.run_until(horizon);
        horizon = horizon + slice;
    }
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    ChurnResult r;
    r.events = sim.executed_events() - before_events;
    r.allocations = allocations() - before_allocs;
    r.events_per_sec =
        wall.count() > 0.0 ? static_cast<double>(r.events) / wall.count() : 0.0;
    return r;
}

// ------------------------------------------------------------- section D
const std::vector<net::Region> kRegions = {net::Region::Seoul,  net::Region::Tokyo,
                                           net::Region::Boston, net::Region::London,
                                           net::Region::Sydney, net::Region::Singapore};

struct SweepResult {
    std::size_t events{0};
    double wall_seconds{0.0};
    double allocs_per_event{0.0};
};

/// E16's core::RegionalDeployment at one size: origin cloud shard + one
/// relay shard per region, lightweight VR clients spread round-robin.
/// Measures the whole run_until (model + engine), not a synthetic loop.
SweepResult run_sharded_sweep(std::size_t clients, double sim_seconds) {
    core::RegionalDeployment deployment{{.regions = kRegions,
                                         .clients = clients,
                                         .batch_interval = sim::Time::ms(20),
                                         .seed = kSeed}};

    const std::uint64_t before_allocs = allocations();
    const auto start = std::chrono::steady_clock::now();
    const std::size_t events =
        deployment.world().run_until(sim::Time::seconds(sim_seconds), 1);
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;

    SweepResult out;
    out.events = events;
    out.wall_seconds = wall.count();
    out.allocs_per_event = events > 0
                               ? static_cast<double>(allocations() - before_allocs) /
                                     static_cast<double>(events)
                               : 0.0;
    return out;
}

// ------------------------------------------------------------- section F
struct CampusResult {
    std::size_t avatars{0};
    std::uint64_t updates{0};
    std::uint64_t batches{0};
    double wall_seconds{0.0};
    double allocs_per_update{0.0};
    double allocs_per_batch{0.0};
};

/// Cell-aggregated campus on one thread: warm up past the first tick (every
/// avatar's opening record, batch vectors and pools growing), then count
/// allocations per update and per batch delivered into a viewer handler.
CampusResult run_campus(bool quick) {
    core::CampusConfig c;
    c.buildings = 2;
    c.classrooms_per_building = quick ? 9 : 25;
    c.avatars_per_classroom = quick ? 36 : 100;
    c.aggregate = true;
    c.seed = kSeed;
    c.motion.amplitude_m = 2.0;  // avatars cross cells, as in the campus workload
    core::CampusWorld world{c};
    const sim::Time warmup = sim::Time::seconds(0.5);
    const sim::Time horizon = warmup + sim::Time::seconds(quick ? 1.0 : 2.0);
    world.run_until(warmup);

    const std::uint64_t updates_before = world.viewer_updates();
    const std::uint64_t batches_before = world.viewer_batches();
    const std::uint64_t before_allocs = allocations();
    const auto start = std::chrono::steady_clock::now();
    world.run_until(horizon);
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;

    CampusResult out;
    out.avatars = world.avatar_count();
    const auto allocs = static_cast<double>(allocations() - before_allocs);
    out.updates = world.viewer_updates() - updates_before;
    out.batches = world.viewer_batches() - batches_before;
    out.wall_seconds = wall.count();
    out.allocs_per_update =
        out.updates > 0 ? allocs / static_cast<double>(out.updates) : 0.0;
    out.allocs_per_batch =
        out.batches > 0 ? allocs / static_cast<double>(out.batches) : 0.0;
    return out;
}

// ------------------------------------------------------------- section G
struct ClassroomResult {
    std::size_t participants{0};
    std::uint64_t updates{0};
    double wall_seconds{0.0};
    double allocs_per_update{0.0};
};

/// Avatar updates any node has received: the `net.rx.<flow>` counters of
/// the avatar flows.
std::uint64_t avatar_updates_received(const sim::MetricsRecorder& m) {
    std::uint64_t total = 0;
    m.for_each_counter([&total](std::string_view key, std::uint64_t value) {
        if (key.starts_with("net.rx.avatar")) total += value;
    });
    return total;
}

/// Blended CWB + GZ classroom with remote VR students behind regional
/// relays: warm up past the first keyframes, seat anchoring and a full
/// jitter-buffer history, then count allocations per delivered update.
ClassroomResult run_classroom(bool quick) {
    core::ClassroomConfig c;
    c.seed = kSeed;
    c.regional_mesh = true;
    core::MetaverseClassroom classroom{c};
    const int students = quick ? 6 : 12;
    classroom.add_instructor(0);
    for (int i = 0; i < students; ++i) {
        classroom.add_physical_student(0);
        classroom.add_physical_student(1);
    }
    for (int i = 0; i < students / 2; ++i) {
        classroom.add_remote_student(net::Region::Seoul);
        classroom.add_remote_student(net::Region::London);
    }
    classroom.start();
    classroom.run_for(sim::Time::seconds(3.0));

    const sim::MetricsRecorder& metrics = classroom.network().metrics();
    const std::uint64_t updates_before = avatar_updates_received(metrics);
    const std::uint64_t before_allocs = allocations();
    const auto start = std::chrono::steady_clock::now();
    classroom.run_for(sim::Time::seconds(quick ? 2.0 : 5.0));
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    const auto allocs = static_cast<double>(allocations() - before_allocs);

    ClassroomResult out;
    out.participants = classroom.class_session().roster().size();
    out.updates = avatar_updates_received(metrics) - updates_before;
    out.wall_seconds = wall.count();
    out.allocs_per_update = out.updates > 0 ? allocs / static_cast<double>(out.updates) : 0.0;
    return out;
}

}  // namespace

int main() {
    bench::Session session{"e17"};
    session.set_seed(kSeed);

    const bool quick = std::getenv("E17_QUICK") != nullptr;
    const std::size_t ops = quick ? 200'000 : 2'000'000;
    const std::uint64_t events = quick ? 200'000 : 1'000'000;
    const std::size_t sends = quick ? 50'000 : 400'000;

    // -------------------------------------------------- A: metric recording
    std::printf("\nA. labeled metric recording (count + latency sample per op)\n");
    sim::MetricsRecorder rec;
    const Measured via_strings = measure(1'000, ops, [&rec](std::size_t) {
        rec.count("net.prio_bytes", {{"flow", "avatar"}, {"priority", "rt"}}, 412);
        rec.sample("net.latency_ms", {{"flow", "avatar"}}, 17.0);
    });
    const sim::MetricId prio =
        rec.counter_id("net.prio_bytes", {{"flow", "avatar"}, {"priority", "rt"}});
    const sim::MetricId lat = rec.series_id("net.latency_ms", {{"flow", "avatar"}});
    const Measured via_handles = measure(1'000, ops, [&rec, prio, lat](std::size_t) {
        rec.count(prio, 412);
        rec.sample(lat, 17.0);
    });
    print_row("string API (key built per call)", via_strings);
    print_row("interned MetricId handles", via_handles);
    session.timing("A string_api / ops_per_sec", via_strings.ops_per_sec);
    session.record("A string_api / allocs_per_op", via_strings.allocs_per_op);
    session.timing("A handles / ops_per_sec", via_handles.ops_per_sec);
    session.record("A handles / allocs_per_op", via_handles.allocs_per_op);

    // ------------------------------------------------------- B: event loop
    std::printf("\nB. event loop, %zu self-rescheduling sessions\n",
                static_cast<std::size_t>(64));
    const std::uint64_t warmup_events = events / 10;
    const Measured legacy_small =
        run_event_loop<LegacyLoop>(64, warmup_events, events, false);
    const Measured legacy_large =
        run_event_loop<LegacyLoop>(64, warmup_events, events, true);
    const Measured pooled_small =
        run_event_loop<PooledLoop>(64, warmup_events, events, false);
    const Measured pooled_large =
        run_event_loop<PooledLoop>(64, warmup_events, events, true);
    print_row("reference loop, 8 B captures", legacy_small);
    print_row("reference loop, 80 B captures", legacy_large);
    print_row("pooled loop, 8 B captures", pooled_small);
    print_row("pooled loop, 80 B captures", pooled_large);
    session.timing("B legacy_small / events_per_sec", legacy_small.ops_per_sec);
    session.record("B legacy_small / allocs_per_event", legacy_small.allocs_per_op);
    session.timing("B legacy_large / events_per_sec", legacy_large.ops_per_sec);
    session.record("B legacy_large / allocs_per_event", legacy_large.allocs_per_op);
    session.timing("B pooled_small / events_per_sec", pooled_small.ops_per_sec);
    session.record("B pooled_small / allocs_per_event", pooled_small.allocs_per_op);
    session.timing("B pooled_large / events_per_sec", pooled_large.ops_per_sec);
    session.record("B pooled_large / allocs_per_event", pooled_large.allocs_per_op);

    const ChurnResult churn = run_timer_churn(64, warmup_events, events);
    std::printf("%-34s %14.0f ops/s %12llu allocs in %llu events\n",
                "timer churn, 64 chains + one-shots", churn.events_per_sec,
                static_cast<unsigned long long>(churn.allocations),
                static_cast<unsigned long long>(churn.events));
    session.count("B timer_churn / events", churn.events);
    session.count("B timer_churn / allocations", churn.allocations);
    session.timing("B timer_churn / events_per_sec", churn.events_per_sec);

    // Two timers armed already due per op: one cancelled, one fired by run_due.
    sim::WallClock wall{kSeed};
    std::uint64_t wall_fired = 0;
    const Measured wall_ops = measure(1'000, ops / 10, [&wall, &wall_fired](std::size_t) {
        const sim::EventHandle h = wall.schedule_at(sim::Time::zero(), [&wall_fired] { ++wall_fired; });
        wall.schedule_at(sim::Time::zero(), [&wall_fired] { ++wall_fired; });
        wall.cancel(h);
        wall.run_due();
    });
    const double wall_allocs_per_timer = wall_ops.allocs_per_op / 2.0;
    std::printf("%-34s %14.0f ops/s %12.3f allocs/timer\n", "WallClock arm+cancel+run_due",
                wall_ops.ops_per_sec, wall_allocs_per_timer);
    session.timing("B wall_clock / ops_per_sec", wall_ops.ops_per_sec);
    session.record("B wall_clock / allocs_per_timer", wall_allocs_per_timer);
    session.count("B wall_clock / fired", wall_fired);

    // ---------------------------------------------------- C: channel sends
    std::printf("\nC. Channel -> Network -> Link -> deliver, empty payloads\n");
    sim::Simulator csim{kSeed};
    net::Network cnet{csim};
    const net::NodeId a = cnet.add_node("a", net::Region::HongKong);
    const net::NodeId b = cnet.add_node("b", net::Region::HongKong);
    net::LinkParams lp;
    lp.latency = sim::Time::us(200);
    lp.queue_bytes = 64 * 1024 * 1024;
    cnet.connect(a, b, lp);
    std::size_t received = 0;
    cnet.set_handler(b, [&received](net::Packet&&) { ++received; });
    net::Channel tx = cnet.open_channel({.src = a, .flow = "avatar"});
    const Measured send_path = measure(2'000, sends, [&](std::size_t) {
        tx.send_to(b, 120, net::Payload{});
        // Drain periodically so the in-flight window stays bounded.
        if (csim.pending_events() > 256) csim.run_until(csim.now() + sim::Time::ms(1));
    });
    csim.run_until(csim.now() + sim::Time::seconds(1));
    print_row("send+deliver (steady state)", send_path);
    std::printf("%-34s %14zu delivered\n", "", received);
    session.timing("C send_path / sends_per_sec", send_path.ops_per_sec);
    session.record("C send_path / allocs_per_send", send_path.allocs_per_op);

    // --------------------------------------------------- D: sharded sweep
    std::printf("\nD. E16-style sharded sweep (origin + 6 relays, 1 thread)\n");
    const std::size_t sweep_clients = quick ? 36 : 288;
    const double sweep_seconds = quick ? 0.5 : 2.0;
    const SweepResult sweep = run_sharded_sweep(sweep_clients, sweep_seconds);
    std::printf("%zu clients, %.1f sim s: %zu events in %.3f s (%.0f events/s, "
                "%.3f allocs/event end-to-end)\n",
                sweep_clients, sweep_seconds, sweep.events, sweep.wall_seconds,
                sweep.wall_seconds > 0.0
                    ? static_cast<double>(sweep.events) / sweep.wall_seconds
                    : 0.0,
                sweep.allocs_per_event);
    session.count("D sweep / clients", sweep_clients);
    session.count("D sweep / events", sweep.events);
    session.timing("D sweep / wall_seconds", sweep.wall_seconds);
    session.record("D sweep / allocs_per_event", sweep.allocs_per_event);

    // ------------------------------------------- E: interest-grid queries
    // The flat grid's _into overloads write into caller buffers; after the
    // warmup grows scratch to steady size, radius and nearest queries on a
    // committed grid must allocate nothing (E22 hot path budget).
    std::printf("\nE. interest-grid queries into caller buffers (4096 entities)\n");
    sync::InterestGrid grid{4.0};
    {
        std::uint64_t state = kSeed;
        const auto next = [&state] {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            return state >> 33;
        };
        for (std::uint32_t i = 1; i <= 4096; ++i) {
            grid.update(EntityId{i}, {static_cast<double>(next() % 640) / 4.0, 0.0,
                                      static_cast<double>(next() % 640) / 4.0});
        }
        grid.rebuild();
    }
    std::vector<EntityId> query_out;
    std::uint64_t query_hits = 0;
    const std::size_t query_ops = quick ? 20'000 : 200'000;
    const Measured radius_query = measure(1'000, query_ops, [&](std::size_t i) {
        const double c = static_cast<double>(i % 160);
        grid.query_radius_into({c, 0.0, 160.0 - c}, 12.0, query_out);
        query_hits += query_out.size();
    });
    const Measured nearest_query = measure(1'000, query_ops, [&](std::size_t i) {
        const double c = static_cast<double>(i % 160);
        grid.query_nearest_into({c, 0.0, 160.0 - c}, 25.0, 16, query_out);
        query_hits += query_out.size();
    });
    print_row("query_radius_into (12 m)", radius_query);
    print_row("query_nearest_into (25 m, cap 16)", nearest_query);
    std::printf("%-34s %14llu hits\n", "",
                static_cast<unsigned long long>(query_hits));
    session.timing("E radius_into / queries_per_sec", radius_query.ops_per_sec);
    session.record("E radius_into / allocs_per_query", radius_query.allocs_per_op);
    session.timing("E nearest_into / queries_per_sec", nearest_query.ops_per_sec);
    session.record("E nearest_into / allocs_per_query", nearest_query.allocs_per_op);

    // ------------------------------------------- F: campus egress path
    std::printf("\nF. aggregated campus egress (2 buildings, 1 thread, after warm-up)\n");
    const CampusResult campus = run_campus(quick);
    std::printf("%zu avatars: %llu updates in %llu batches delivered in %.3f s "
                "(%.3f allocs/update, %.2f allocs/batch)\n",
                campus.avatars, static_cast<unsigned long long>(campus.updates),
                static_cast<unsigned long long>(campus.batches), campus.wall_seconds,
                campus.allocs_per_update, campus.allocs_per_batch);
    session.count("F campus / avatars", campus.avatars);
    session.count("F campus / updates", campus.updates);
    session.count("F campus / batches", campus.batches);
    session.timing("F campus / wall_seconds", campus.wall_seconds);
    session.record("F campus / allocs_per_update", campus.allocs_per_update);
    session.record("F campus / allocs_per_batch", campus.allocs_per_batch);

    // ----------------------------------------- G: blended classroom path
    std::printf("\nG. blended classroom avatar path (CWB + GZ + 2 relays, after warm-up)\n");
    const ClassroomResult room = run_classroom(quick);
    std::printf("%zu participants: %llu avatar updates delivered in %.3f s "
                "(%.3f allocs/update)\n",
                room.participants, static_cast<unsigned long long>(room.updates),
                room.wall_seconds, room.allocs_per_update);
    session.count("G classroom / participants", room.participants);
    session.count("G classroom / updates", room.updates);
    session.timing("G classroom / wall_seconds", room.wall_seconds);
    session.record("G classroom / allocs_per_update", room.allocs_per_update);

    // --------------------------------------------------------------- gates
    const auto reduction = [](const Measured& legacy, const Measured& pooled) {
        return legacy.allocs_per_op / std::max(pooled.allocs_per_op, 1e-9);
    };
    session.record("B reduction_small_x", reduction(legacy_small, pooled_small));
    session.record("B reduction_large_x", reduction(legacy_large, pooled_large));
    session.timing("A handles_over_strings_x",
                   via_handles.ops_per_sec / via_strings.ops_per_sec);

    // Steady-state allocations per event, send and grid query stay in budget.
    for (const char* metric :
         {"B pooled_small / allocs_per_event.max", "B pooled_large / allocs_per_event.max",
          "C send_path / allocs_per_send.max", "E radius_into / allocs_per_query.max",
          "E nearest_into / allocs_per_query.max"})
        session.gate({metric, {}, kAllocBudget});
    // The pooled loop allocates at least 5x less than the reference loop.
    session.gate({"B reduction_small_x.min", 5.0, {}});
    session.gate({"B reduction_large_x.min", 5.0, {}});
    // Pre-resolved handles record faster than the string API.
    session.gate({"A handles_over_strings_x.min", 1.0, {}});
    // Timer churn and WallClock timers run, and make zero allocations.
    session.gate({"B timer_churn / events", 1.0, {}});
    session.gate({"B timer_churn / allocations", {}, 0.0});
    session.gate({"B wall_clock / fired", 1.0, {}});
    session.gate({"B wall_clock / allocs_per_timer.max", {}, 0.0});
    // The campus delivers, within its per-update and per-batch budgets.
    session.gate({"F campus / updates", 1.0, {}});
    session.gate({"F campus / allocs_per_update.max", {}, kCampusAllocBudget});
    session.gate({"F campus / batches", 1.0, {}});
    session.gate({"F campus / allocs_per_batch.max", {}, kCampusBatchAllocBudget});
    // The classroom delivers, within its per-update budget.
    session.gate({"G classroom / updates", 1.0, {}});
    session.gate({"G classroom / allocs_per_update.max", {}, kClassroomAllocBudget});
    return session.finish();
}
