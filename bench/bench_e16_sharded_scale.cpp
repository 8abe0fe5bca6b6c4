// E16 — sharded parallel simulation engine: one shard per region, advanced
// by worker threads under a conservative lookahead, with relay/origin
// fan-out coalesced into per-destination wire batches.
//
// Topology (core::RegionalDeployment): the Hong Kong origin cloud is shard
// 0; six regional relays (Seoul, Tokyo, Boston, London, Sydney, Singapore)
// are shards 1..6, each serving its local crowd of lightweight VR clients.
// Relay<->origin traffic crosses shard boundaries through proxy nodes; the
// epoch length is the minimum origin<->relay WAN latency, so cross-shard
// messages always land in a later epoch and no rollback is ever needed.
//
// Claims measured:
//  - determinism: for a fixed seed, the merged metrics JSON is byte-
//    identical for every worker-thread count (1/2/4/8);
//  - scaling: events/sec grows with threads on multicore hosts (the PASS
//    check is gated on std::thread::hardware_concurrency — a 1-core CI box
//    cannot show parallel speedup and reports SKIP instead);
//  - batching: per-destination batches collapse cross-shard packet counts.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "core/regional_deployment.hpp"

using namespace mvc;

namespace {

const std::vector<net::Region> kRegions = {net::Region::Seoul,  net::Region::Tokyo,
                                           net::Region::Boston, net::Region::London,
                                           net::Region::Sydney, net::Region::Singapore};
constexpr std::uint64_t kSeed = 23;

struct RunResult {
    std::string metrics_json;   // deterministic merged export
    std::size_t events{0};      // events executed across shards
    double wall_seconds{0.0};   // host time for run_until
    std::uint64_t epochs{0};
    std::uint64_t cross_messages{0};
    std::uint64_t violations{0};
};

RunResult run(std::size_t clients, std::size_t threads, double sim_seconds,
              sim::Time batch_interval) {
    core::RegionalDeployment deployment{
        {.regions = kRegions, .clients = clients, .batch_interval = batch_interval, .seed = kSeed}};
    core::ShardedWorld& world = deployment.world();

    const auto wall_start = std::chrono::steady_clock::now();
    const std::size_t events =
        world.run_until(sim::Time::seconds(sim_seconds), threads);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;

    RunResult out;
    const sim::MetricsRecorder merged = world.merged_metrics();
    out.metrics_json = merged.to_json().dump(2);
    out.events = events;
    out.wall_seconds = wall.count();
    out.epochs = merged.counter("shard.epochs");
    out.cross_messages = merged.counter("shard.cross_messages");
    out.violations = merged.counter("shard.lookahead_violations");
    return out;
}

}  // namespace

int main() {
    bench::Harness harness{"e16"};
    bench::Session& session = harness.session();
    session.set_seed(kSeed);

    const bool quick = std::getenv("E16_QUICK") != nullptr;
    const double seconds = quick ? 1.0 : 2.0;
    const std::vector<std::size_t> sizes =
        quick ? std::vector<std::size_t>{36} : std::vector<std::size_t>{288, 1024, 4096};
    const std::vector<std::size_t> thread_counts =
        quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};
    const sim::Time batch_interval = sim::Time::ms(20);

    bool identical = true;
    bool violation_free = true;
    double best_speedup = 0.0;
    std::size_t largest = sizes.back();

    std::printf("\n%8s %8s %12s %10s %12s %10s %8s\n", "clients", "threads",
                "events", "wall s", "events/s", "speedup", "epochs");
    for (const std::size_t n : sizes) {
        std::string baseline_json;
        double baseline_rate = 0.0;
        for (const std::size_t t : thread_counts) {
            const RunResult r = run(n, t, seconds, batch_interval);
            const double rate =
                r.wall_seconds > 0.0 ? static_cast<double>(r.events) / r.wall_seconds : 0.0;
            if (t == thread_counts.front()) {
                baseline_json = r.metrics_json;
                baseline_rate = rate;
                // Deterministic figures recorded once per size, from the
                // single-thread run (identical for every thread count).
                const std::string key = std::to_string(n) + " clients";
                session.count(key + " / events", r.events);
                session.count(key + " / epochs", r.epochs);
                session.count(key + " / cross_messages", r.cross_messages);
            } else if (r.metrics_json != baseline_json) {
                identical = false;
            }
            if (r.violations != 0) violation_free = false;
            const double speedup = baseline_rate > 0.0 ? rate / baseline_rate : 0.0;
            if (n == largest) best_speedup = std::max(best_speedup, speedup);
            std::printf("%8zu %8zu %12zu %10.3f %12.0f %9.2fx %8llu\n", n, t, r.events,
                        r.wall_seconds, rate, speedup,
                        static_cast<unsigned long long>(r.epochs));
        }
    }

    // Batching ablation at the mid size: cross-shard messages with and
    // without per-destination coalescing (deterministic, so exported).
    const std::size_t ablation_n = quick ? sizes.front() : 1024;
    const RunResult batched = run(ablation_n, 1, seconds, batch_interval);
    const RunResult unbatched = run(ablation_n, 1, seconds, sim::Time::zero());
    session.count("ablation / cross_messages_batched", batched.cross_messages);
    session.count("ablation / cross_messages_unbatched", unbatched.cross_messages);
    std::printf("\nbatching at %zu clients: cross-shard messages %llu -> %llu "
                "(%.1fx fewer)\n",
                ablation_n, static_cast<unsigned long long>(unbatched.cross_messages),
                static_cast<unsigned long long>(batched.cross_messages),
                batched.cross_messages > 0
                    ? static_cast<double>(unbatched.cross_messages) /
                          static_cast<double>(batched.cross_messages)
                    : 0.0);

    session.count("determinism_identical_json", identical ? 1 : 0);
    session.count("lookahead_violation_free", violation_free ? 1 : 0);

    std::printf("\nexpected shape: merged metrics byte-identical across thread "
                "counts -> %s\n",
                identical ? "PASS" : "FAIL");
    std::printf("expected shape: zero lookahead violations -> %s\n",
                violation_free ? "PASS" : "FAIL");
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores >= 4) {
        std::printf("expected shape: >=3x events/s at 8 threads vs 1 (%u cores) -> %s\n",
                    cores, best_speedup >= 3.0 ? "PASS" : "FAIL");
    } else {
        std::printf("expected shape: >=3x events/s at 8 threads vs 1 -> SKIP "
                    "(host has %u core%s; parallel speedup needs >=4)\n",
                    cores, cores == 1 ? "" : "s");
    }
    return identical && violation_free ? 0 : 1;
}
