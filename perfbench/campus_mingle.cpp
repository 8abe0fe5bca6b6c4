// campus_mingle: the dense core/sync hot path. A pooled CampusWorld of
// 8 buildings x 125 rooms x 100 avatars (100k), 8 viewers per building,
// 20 Hz ticks and cell-aggregated egress, run on min(4, nproc) workers.
// Crowd sway is 2 m against 8 m cells so avatars change cell and the
// interest grid's incremental rebuild runs; at the 8 cm default no avatar
// ever leaves its cell and the grid's write path would go unmeasured.

#include <memory>

#include "core/campus.hpp"
#include "episodes.hpp"
#include "perfbench.hpp"
#include "probes.hpp"
#include "unit_costs.hpp"

namespace perfbench {

namespace {

namespace core = mvc::core;
namespace sim = mvc::sim;

constexpr double kHorizonS = 2.0;  // simulated seconds per episode

core::CampusConfig campus_config(std::uint64_t seed) {
    core::CampusConfig c;
    c.buildings = 8;
    c.classrooms_per_building = 125;
    c.avatars_per_classroom = 100;
    c.viewers_per_building = 8;
    c.tick_rate_hz = 20.0;
    c.aggregate = true;
    c.seed = seed;
    c.motion.amplitude_m = 2.0;
    return c;
}

struct Episode {
    Section run;
    double setup_s{0.0};
    std::size_t events{0};
    std::uint64_t updates{0};
    std::uint64_t shipped{0};
    std::uint64_t digest{0};
    std::uint64_t violations{0};
    double collect_ms{0.0};
    NetCounts net;
    std::vector<double> epoch_ms;
    std::size_t pending_events{0};
    // Layer counts from the merged metrics.
    std::uint64_t ticks{0};
    std::uint64_t generated{0};
    std::uint64_t incremental_rebuilds{0};
    std::uint64_t full_rebuilds{0};
    std::uint64_t suppressed_aoi{0};
    std::uint64_t suppressed_rate{0};
    std::uint64_t epochs{0};
    std::uint64_t cross_messages{0};
    // Reference episode only: the real-encoder tap.
    std::uint64_t wire_bytes{0};
    std::uint64_t unencodable{0};
};

Episode episode(const core::CampusConfig& config, std::size_t threads, bool tap,
                SpanLog* log) {
    Episode e;
    const std::int64_t b0 = wall_ns();
    auto world = std::make_unique<core::CampusWorld>(config);
    const std::int64_t b1 = wall_ns();
    if (log != nullptr) log->record(SpanKind::Build, b0, b1, 0);

    std::vector<std::unique_ptr<WireTap>> taps;
    if (tap) {
        for (std::size_t s = 0; s < world->sharded().shard_count(); ++s)
            taps.push_back(std::make_unique<WireTap>(world->network(s)));
    }
    EpochProbe probe{world->sharded().shards(), log};
    probe.start();
    const SectionTimer run;
    e.events = world->run_until(sim::Time::seconds(kHorizonS), threads);
    e.run = run.stop();

    e.updates = world->viewer_updates();
    e.shipped = world->updates_shipped();
    e.digest = world->state_digest();
    e.violations = world->lookahead_violations();
    e.epoch_ms = std::move(probe.epoch_ms);
    for (std::size_t s = 0; s < world->sharded().shard_count(); ++s)
        e.pending_events += world->simulator(s).pending_events();
    e.pending_events /= world->sharded().shard_count();

    const SectionTimer collect;
    const sim::MetricsRecorder m = world->merged_metrics();
    e.collect_ms = collect.stop().wall * 1e3;
    e.net = net_counts(m);
    e.ticks = m.counter("campus/ticks");
    e.generated = m.counter("campus/updates_generated");
    e.incremental_rebuilds = m.counter("campus/grid_incremental_rebuilds");
    e.full_rebuilds = m.counter("campus/grid_full_rebuilds");
    e.suppressed_aoi = m.counter("campus/suppressed_aoi");
    e.suppressed_rate = m.counter("campus/suppressed_rate");
    e.epochs = m.counter("shard.epochs");
    e.cross_messages = m.counter("shard.cross_messages");
    for (const auto& t : taps) {
        e.wire_bytes += t->bytes();
        e.unencodable += t->unencodable();
    }
    return e;
}

}  // namespace

Result run_campus_mingle(const Options& o) {
    const core::CampusConfig config = campus_config(o.seed);
    Result r;

    // Measured episodes; with --trace 1 every other one is traced, so the
    // traced/untraced difference is the tracing overhead.
    std::vector<Episode> plain;
    std::vector<Episode> traced;
    SpanLog log;
    run_episodes(o.seconds, [&](std::size_t i) {
        const bool t = o.trace && i % 2 == 1;
        Episode e = episode(config, o.threads, false, t ? &log : nullptr);
        if (!o.trace) {
            e.setup_s = fastest_build([&] {
                const std::int64_t t0 = wall_ns();
                const core::CampusWorld world{config};
                return static_cast<double>(wall_ns() - t0) * 1e-9;
            });
        }
        if (i > 0) (t ? traced : plain).push_back(std::move(e));
    });
    const double peak_rss = peak_rss_mb();

    // Correctness: every episode reaches the same state digest, equal to a
    // single-thread run's, with zero lookahead violations. The single-thread
    // reference also carries the real-encoder tap.
    const Episode ref = episode(config, 1, true, nullptr);
    for (const auto* set : {&plain, &traced}) {
        for (const Episode& e : *set) {
            if (e.digest != ref.digest) r.fail("campus state digest differs from 1-thread run");
            if (e.violations != 0) r.fail("lookahead violations");
            r.attempted += e.net.tx;
            r.failed += e.net.failed;
        }
    }
    if (ref.violations != 0) r.fail("lookahead violations in 1-thread run");
    if (ref.updates == 0) r.fail("no updates delivered");

    const auto med = [&](auto f) {
        std::vector<double> v;
        for (const Episode& e : plain) v.push_back(f(e));
        return median(v);
    };
    const double updates = static_cast<double>(ref.updates);
    if (!o.trace) {
        std::vector<EpisodeTiming> timings;
        for (const Episode& e : plain)
            timings.push_back({e.run, kHorizonS, e.updates, e.setup_s});
        report_end_to_end(r, timings, peak_rss, updates / static_cast<double>(ref.shipped),
                          static_cast<double>(ref.wire_bytes) / updates);
        return r;
    }

    // ------------------------------------------------------------ traced
    std::vector<double> epoch_ms;
    std::vector<double> traced_cpu;
    std::vector<double> traced_cpu_per_update;
    double util = 0.0;
    for (const Episode& e : traced) {
        epoch_ms.insert(epoch_ms.end(), e.epoch_ms.begin(), e.epoch_ms.end());
        traced_cpu.push_back(e.run.cpu);
        traced_cpu_per_update.push_back(e.run.cpu / static_cast<double>(e.updates));
        util += e.run.cpu / (e.run.wall * static_cast<double>(o.threads));
    }
    util /= static_cast<double>(std::max<std::size_t>(traced.size(), 1));
    const double plain_cpu_per_update =
        med([](const Episode& e) { return e.run.cpu / static_cast<double>(e.updates); });

    const unit::CampusCosts c = unit::campus(config);
    const double event_ns = unit::sim_event_ns(ref.pending_events, o.seed);
    const double send_ns = unit::net_send_ns(mvc::core::AvatarPool::kRecordBytes);
    const double ticks = static_cast<double>(ref.ticks);
    const double viewers = static_cast<double>(config.viewers_per_building);
    // The cross-shard mirror: each building's batcher ships every
    // mirror_stride-th avatar's update to the origin once per interval.
    const double batcher_us = unit::batcher_flush_us(
        1, config.classrooms_per_building * config.avatars_per_classroom / config.mirror_stride,
        mvc::core::AvatarPool::kRecordBytes);

    Ledger ledger;
    ledger.add("core.pool_sweep", c.pool_sweep_us * 1e3, ticks);
    ledger.add("sync.grid_rebuild", c.grid_rebuild_us * 1e3, ticks);
    ledger.add("sync.grid_query", c.grid_query_ns, ticks * viewers);
    ledger.add("sync.aggregator_flush", c.aggregator_flush_us * 1e3, ticks);
    ledger.add("sync.batcher_flush", batcher_us * 1e3, ticks);
    ledger.add("sim.event", event_ns, static_cast<double>(ref.events));
    const double share = ledger.reconcile("campus_mingle", median(traced_cpu), r.report);

    for (const auto& [name, unit] : per_layer_metrics()) r.set(name, 0.0, unit);
    r.set("sim.events", static_cast<double>(ref.events), "count");
    r.set("sim.event_ns", event_ns, "ns");
    r.set("sim.epochs", static_cast<double>(ref.epochs), "count");
    r.set("sim.epoch_ms.p50", quantile(epoch_ms, 0.5), "ms");
    r.set("sim.epoch_ms.p99", quantile(epoch_ms, 0.99), "ms");
    r.set("sim.worker_util", util, "ratio");
    r.set("sim.cross_messages", static_cast<double>(ref.cross_messages), "count");
    r.set("sim.metrics_samples", static_cast<double>(ref.net.series_samples), "count");
    r.set("sim.metrics_collect_ms", med([](const Episode& e) { return e.collect_ms; }), "ms");
    r.set("net.packets", static_cast<double>(ref.net.tx), "count");
    r.set("net.drops", static_cast<double>(ref.net.drops), "count");
    r.set("net.send_ns", send_ns, "ns");
    r.set("net.unencodable", static_cast<double>(ref.unencodable), "count");
    r.set("sync.grid_rebuilds_incremental", static_cast<double>(ref.incremental_rebuilds), "count");
    r.set("sync.grid_rebuilds_full", static_cast<double>(ref.full_rebuilds), "count");
    r.set("sync.grid_rebuild_us", c.grid_rebuild_us, "us");
    r.set("sync.grid_query_ns", c.grid_query_ns, "ns");
    r.set("sync.aggregator_flush_us", c.aggregator_flush_us, "us");
    r.set("sync.batcher_flush_us", batcher_us, "us");
    r.set("sync.ship_ratio",
          static_cast<double>(ref.shipped) / static_cast<double>(ref.generated), "ratio");
    r.set("sync.suppressed_aoi", static_cast<double>(ref.suppressed_aoi), "count");
    r.set("sync.suppressed_rate", static_cast<double>(ref.suppressed_rate), "count");
    r.set("core.pool_sweep_us", c.pool_sweep_us, "us");
    r.set("explained_share", share, "ratio");
    r.set("trace.overhead", median(traced_cpu_per_update) / plain_cpu_per_update - 1.0, "ratio");
    write_spans(".bench_build/perfbench/traces/campus_mingle-" + std::to_string(o.seed) + ".jsonl",
                {&log});
    return r;
}

}  // namespace perfbench
