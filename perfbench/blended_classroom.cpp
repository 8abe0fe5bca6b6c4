// blended_classroom: the paper's CWB + GZ blended classroom through
// scenario::build — 24 + 24 students, an instructor, lecture media, and
// three remote cohorts of 16 (one joining late) on the regional mesh, with
// heartbeats, degradation, 2 s checkpoints, admission, a Poisson storm
// (link flaps, loss bursts, latency spikes, edge crashes), and recording
// into an in-memory replay::Recorder. The only workload that exercises
// edge, sensing, media, session, fault, recovery and replay, including
// restore and late-join writes alongside steady streaming.

#include <memory>
#include <string>

#include "core/classroom.hpp"
#include "episodes.hpp"
#include "perfbench.hpp"
#include "probes.hpp"
#include "recovery/store.hpp"
#include "replay/recorder.hpp"
#include "replay/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/world.hpp"
#include "sim/simulator.hpp"
#include "unit_costs.hpp"

namespace perfbench {

namespace {

namespace sim = mvc::sim;
namespace scenario = mvc::scenario;

// Simulated seconds per episode: long enough for a dozen storm events of
// each kind, so the latency tail does not hinge on a few draws.
constexpr double kHorizonS = 120.0;

scenario::ScenarioSpec blended_spec(std::uint64_t seed) {
    const std::string text = R"({
  "scenario_version": 1,
  "name": "perfbench-blended",
  "world": "classroom",
  "backend": "sim",
  "seed": )" + std::to_string(seed) + R"(,
  "duration_s": 120,
  "hash_ms": 100,
  "classroom": {
    "course": "blended lecture through a storm",
    "regional_mesh": true,
    "heartbeat": {"interval_ms": 50, "timeout_ms": 200},
    "degradation": {"enter_loss": 0.1, "exit_loss": 0.03, "hold_s": 1},
    "recovery": {"checkpoint_s": 2},
    "admission": {},
    "rooms": [
      {"preset": "cwb", "students": 24, "instructor": true},
      {"preset": "gz", "students": 24}
    ],
    "remote": [
      {"region": "Seoul", "count": 16},
      {"region": "London", "count": 16},
      {"region": "Boston", "count": 16, "join_at_s": 20}
    ],
    "lecture_media_room": 0,
    "schedule": [{"activity": "lecture", "minutes": 2}]
  },
  "timeline": [
    {"kind": "random", "from_s": 5, "until_s": 115, "stream": "storm",
     "model": {"flaps_per_min": 3, "mean_outage_s": 2,
               "bursts_per_min": 4, "mean_burst_s": 1.5, "burst_loss": 0.3,
               "spikes_per_min": 4, "mean_spike_s": 1, "spike_extra_ms": 40,
               "crashes_per_min": 3, "mean_downtime_s": 3},
     "links": [["edge/0", "edge/1"], ["edge/1", "cloud"]],
     "nodes": ["edge/0", "edge/1"]}
  ]
})";
    return scenario::scenario_from_text(text);
}

// Remote VR attendees per cohort (one regional relay each).
constexpr std::size_t kCohort = 16;

struct Episode {
    Section run;
    double setup_s{0.0};
    std::size_t events{0};
    std::vector<std::uint64_t> hashes;
    std::uint64_t updates{0};
    std::uint64_t avatar_tx{0};
    // The cloud layer: the origin's inbound messages and forwarded copies,
    // and the updates the remote attendees' VrClients applied.
    std::uint64_t cloud_in{0};
    std::uint64_t cloud_out{0};
    std::uint64_t remote_applied{0};
    double collect_ms{0.0};
    NetCounts net;
    std::size_t pending_events{0};
    std::uint64_t sensor_samples{0};
    std::uint64_t checkpoints{0};
    std::uint64_t trace_bytes{0};
    std::string recorder_error;
    std::map<std::string, std::uint64_t> flows;
    std::vector<std::vector<std::uint8_t>> checkpoint_samples;
    std::uint64_t wire_bytes{0};
    std::uint64_t unencodable{0};
    std::vector<mvc::net::Packet> samples;
};

/// Sum of the packet counter `prefix`<flow> over the avatar flows.
std::uint64_t avatar_counter(const sim::MetricsRecorder& m, std::string_view prefix) {
    std::uint64_t total = 0;
    for (const auto& [key, value] : m.counters())
        if (key.compare(0, prefix.size(), prefix) == 0 &&
            key.compare(prefix.size(), 6, "avatar") == 0)
            total += value;
    return total;
}

Episode episode(const scenario::ScenarioSpec& spec, bool tap, SpanLog* log) {
    Episode e;
    const std::int64_t b0 = wall_ns();
    std::unique_ptr<scenario::ScenarioWorld> world = scenario::build(spec);
    const std::int64_t b1 = wall_ns();
    if (log != nullptr) log->record(SpanKind::Build, b0, b1, 0);

    mvc::replay::MemorySink sink;
    mvc::replay::Recorder recorder{sink, spec.seed, scenario::spec_stamp(spec), 0};
    world->enable_recording(recorder);
    // The wire tap chains the recorder's tap; traced runs time that call.
    std::unique_ptr<WireTap> wire;
    if (tap || log != nullptr)
        wire = std::make_unique<WireTap>(world->backend(), log, tap ? 256 : 0, tap);

    sim::Simulator& simulator = world->simulator();
    const std::size_t before = simulator.executed_events();
    const SectionTimer run;
    world->run();
    e.run = run.stop();
    e.events = simulator.executed_events() - before;
    e.pending_events = simulator.pending_events();
    e.hashes = world->hashes();

    const SectionTimer collect;
    const sim::MetricsRecorder m = world->collect_metrics();
    e.collect_ms = collect.stop().wall * 1e3;
    e.net = net_counts(m);
    e.updates = avatar_counter(m, "net.rx.");
    e.avatar_tx = avatar_counter(m, "net.tx.");
    for (const auto& [key, series] : m.all_series())
        if (key.size() > 17 && key.substr(key.size() - 17) == ".sensor_ingest_ms")
            e.sensor_samples += series->count();

    mvc::core::MetaverseClassroom& classroom = world->classroom();
    e.cloud_in = classroom.cloud_server().messages_in();
    e.cloud_out = classroom.cloud_server().messages_out();
    for (const auto& p : classroom.class_session().roster())
        if (p.is_remote()) e.remote_applied += classroom.remote_client(p.id).updates_received();
    for (std::size_t i = 0; i < classroom.room_count(); ++i) {
        const std::string& owner = classroom.network().name_of(classroom.edge_server(i).node());
        if (auto cp = classroom.checkpoint_store().latest(owner))
            e.checkpoint_samples.push_back(std::move(*cp));
    }
    if (wire) {
        e.wire_bytes = wire->bytes();
        e.unencodable = wire->unencodable();
        e.flows = wire->flows();
        e.samples = wire->samples();
    }
    world->stop();
    wire.reset();
    recorder.finish();
    e.checkpoints = recorder.checkpoints();
    e.trace_bytes = sink.bytes().size();
    e.recorder_error = recorder.error();
    return e;
}

}  // namespace

Result run_blended_classroom(const Options& o) {
    const scenario::ScenarioSpec spec = blended_spec(o.seed);
    Result r;
    std::vector<Episode> plain;
    std::vector<Episode> traced;
    SpanLog log;
    run_episodes(o.seconds, [&](std::size_t i) {
        const bool t = o.trace && i % 2 == 1;
        Episode e = episode(spec, false, t ? &log : nullptr);
        if (!o.trace) {
            e.setup_s = fastest_build([&] {
                const std::int64_t t0 = wall_ns();
                const auto world = scenario::build(spec);
                return static_cast<double>(wall_ns() - t0) * 1e-9;
            });
        }
        if (i > 0) (t ? traced : plain).push_back(std::move(e));
    });
    const double peak_rss = peak_rss_mb();

    // Correctness: every episode produces the same state-hash stream as the
    // reference run, which also carries the real-encoder tap.
    const Episode ref = episode(spec, true, nullptr);
    if (ref.hashes.empty()) r.fail("no state hashes recorded");
    for (const auto* set : {&plain, &traced}) {
        for (const Episode& e : *set) {
            if (e.hashes != ref.hashes) r.fail("state-hash stream differs between runs");
            if (!e.recorder_error.empty()) r.fail("recorder: " + e.recorder_error);
            r.attempted += e.net.tx;
            r.failed += e.net.failed;
        }
    }
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
        report_end_to_end(r, timings, peak_rss, updates / static_cast<double>(ref.avatar_tx),
                          static_cast<double>(ref.wire_bytes) / updates);
        return r;
    }

    // ------------------------------------------------------------ traced
    std::vector<double> traced_cpu;
    std::vector<double> traced_cpu_per_update;
    for (const Episode& e : traced) {
        traced_cpu.push_back(e.run.cpu);
        traced_cpu_per_update.push_back(e.run.cpu / static_cast<double>(e.updates));
    }
    const double episodes = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
    const double plain_cpu_per_update =
        med([](const Episode& e) { return e.run.cpu / static_cast<double>(e.updates); });
    const double event_ns = unit::sim_event_ns(ref.pending_events, o.seed);
    const double send_ns = unit::net_send_ns(64);
    const unit::AvatarCosts codec = unit::avatar(o.seed);
    const double fusion_us = unit::fusion_us(49, o.seed);
    const double fec_us = unit::fec_encode_us(8, 2, 1200);
    const double checkpoint_us = unit::checkpoint_encode_us(ref.checkpoint_samples);
    const auto& tap = log.stat(SpanKind::ReplayTap);
    const double tap_ns = tap.count > 0 ? tap.total_ns / static_cast<double>(tap.count) : 0.0;
    const unit::FrameCosts frames = unit::frame(ref.samples);
    // The cloud layer's relays and clients run hidden inside the classroom;
    // one remote cohort is rebuilt on the real wire to time them.
    SpanLog cohort_log;
    const unit::CohortCosts cohort = unit::cohort(kCohort, 1.0, o.seed, cohort_log);
    if (cohort.wire_errors != 0) r.fail("cohort probe: decode or send errors on the wire");
    if (cohort.applied == 0) r.fail("cohort probe: no updates applied");

    // Video packets travel in FEC blocks of 8 data + 2 parity packets.
    std::uint64_t video = 0;
    for (const auto& [flow, count] : ref.flows)
        if (flow.rfind("media.camera", 0) == 0 || flow.rfind("media.slides", 0) == 0) video += count;

    // Every update a remote attendee applies was one relay copy, decoded
    // inside the client's handler; the other updates are decoded by edges.
    const auto remote = static_cast<double>(ref.remote_applied);
    Ledger ledger;
    ledger.add("sim.event", event_ns, static_cast<double>(ref.events));
    ledger.add("net.send", send_ns, static_cast<double>(ref.net.tx));
    ledger.add("avatar.encode", codec.encode_ns, static_cast<double>(ref.avatar_tx));
    ledger.add("avatar.decode", codec.decode_ns, updates - remote);
    ledger.add("cloud.relay (self)", cohort.relay_ns_per_copy, remote);
    ledger.add("cloud.client (self)", cohort.client_ns_per_update, remote);
    ledger.add("sensing.fusion", fusion_us * 1e3, static_cast<double>(ref.sensor_samples));
    ledger.add("media.fec_encode", fec_us * 1e3, static_cast<double>(video) / 10.0);
    ledger.add("recovery.checkpoint_encode", checkpoint_us * 1e3,
               static_cast<double>(ref.checkpoints));
    ledger.add("replay.tap", tap_ns, static_cast<double>(tap.count) / episodes);
    const double share = ledger.reconcile("blended_classroom", median(traced_cpu), r.report);
    for (const auto& [flow, count] : ref.flows)
        r.report.push_back("  flow " + flow + ": " + std::to_string(count) + " packets");

    for (const auto& [name, unit] : per_layer_metrics()) r.set(name, 0.0, unit);
    r.set("sim.events", static_cast<double>(ref.events), "count");
    r.set("sim.event_ns", event_ns, "ns");
    r.set("sim.worker_util", med([](const Episode& e) { return e.run.cpu / e.run.wall; }),
          "ratio");
    r.set("sim.metrics_samples", static_cast<double>(ref.net.series_samples), "count");
    r.set("sim.metrics_collect_ms", med([](const Episode& e) { return e.collect_ms; }), "ms");
    r.set("net.packets", static_cast<double>(ref.net.tx), "count");
    r.set("net.drops", static_cast<double>(ref.net.drops), "count");
    r.set("net.send_ns", send_ns, "ns");
    r.set("net.frame_encode_ns", frames.encode_ns, "ns");
    r.set("net.frame_decode_ns", frames.decode_ns, "ns");
    r.set("net.udp.poll_turn_us.p50", cohort.poll_turn_us_p50, "us");
    r.set("net.udp.poll_turn_us.p99", cohort.poll_turn_us_p99, "us");
    r.set("net.udp.dgrams_per_turn", cohort.dgrams_per_turn, "count");
    r.set("net.unencodable", static_cast<double>(ref.unencodable), "count");
    r.set("avatar.encode_ns", codec.encode_ns, "ns");
    r.set("avatar.decode_ns", codec.decode_ns, "ns");
    r.set("cloud.relay_handler_us.p50", cohort.relay_us_p50, "us");
    r.set("cloud.relay_handler_us.p99", cohort.relay_us_p99, "us");
    r.set("cloud.client_handler_us.p50", cohort.client_us_p50, "us");
    r.set("cloud.fanout_per_update",
          static_cast<double>(ref.cloud_out) / static_cast<double>(ref.cloud_in), "count");
    r.set("sensing.fusion_us", fusion_us, "us");
    r.set("media.fec_encode_us", fec_us, "us");
    r.set("recovery.checkpoint_encode_us", checkpoint_us, "us");
    r.set("recovery.checkpoints", static_cast<double>(ref.checkpoints), "count");
    r.set("replay.tap_ns", tap_ns, "ns");
    r.set("replay.trace_bytes", static_cast<double>(ref.trace_bytes), "bytes");
    r.set("explained_share", share, "ratio");
    r.set("trace.overhead", median(traced_cpu_per_update) / plain_cpu_per_update - 1.0, "ratio");
    write_spans(".bench_build/perfbench/traces/blended_classroom-" + std::to_string(o.seed) +
                    ".jsonl",
                {&log, &cohort_log});
    return r;
}

}  // namespace perfbench
