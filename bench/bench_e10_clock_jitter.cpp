// E10 — cross-classroom synchronization plumbing: clock sync accuracy and
// jitter-buffer sizing under WiFi contention.
// Claim (§3.1): the three classrooms are "synchronized so that the
// intervention of a participant in any of these classrooms will be visible
// to the attendants in the other two classrooms".
//
// (a) NTP-style sync error vs path jitter and probing window.
// (b) WiFi contention (station count) vs sensor ingestion latency — the
//     first hop of Figure 3 — and the jitter-buffer playout delay a
//     receiver needs downstream of it.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "net/wifi.hpp"
#include "sync/clock.hpp"
#include "sync/jitter.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

using namespace mvc;

namespace {

double sync_error_ms(double jitter_ms, std::size_t window, double seconds = 30.0) {
    sim::Simulator sim{47};
    net::Network net{sim};
    const net::NodeId a = net.add_node("edge-a", net::Region::HongKong);
    const net::NodeId b = net.add_node("edge-b", net::Region::Guangzhou);
    net::LinkParams link;
    link.latency = sim::Time::ms(4.0);
    link.jitter = sim::Time::ms(jitter_ms);
    link.spike_probability = 0.01;
    net.connect(a, b, link);
    net::PacketDemux demux_a{net, a};
    net::PacketDemux demux_b{net, b};
    const sync::DriftingClock client{80.0, sim::Time::ms(321.0)};
    const sync::DriftingClock server{-40.0, sim::Time::ms(-777.0)};
    sync::ClockSyncParams params;
    params.window = window;
    sync::ClockSyncSession session{net, demux_a, demux_b, "ntp", client, server, params};
    session.start();
    // Measure the error at several points in the second half of the run.
    math::SampleSeries err;
    for (double t = seconds / 2; t <= seconds; t += 1.0) {
        sim.run_until(sim::Time::seconds(t));
        err.add(session.estimation_error().to_ms());
    }
    return err.mean();
}

struct WifiRow {
    std::size_t stations;
    double ingest_p50;
    double ingest_p99;
    double utilization;
    double playout_ms;
};

WifiRow wifi_case(std::size_t stations, double seconds = 20.0) {
    sim::Simulator sim{53};
    net::WifiParams params;
    net::WifiChannel wifi{sim, "room", params};
    math::SampleSeries ingest_ms;
    sync::JitterBuffer buffer;

    std::vector<net::StationId> ids;
    for (std::size_t i = 0; i < stations; ++i) ids.push_back(wifi.add_station());

    // Every station streams 60 Hz tracking samples (~110 B); we follow one
    // "tracked participant" whose samples feed a downstream jitter buffer.
    sim::Rng rng = sim.rng_stream("phase");
    for (std::size_t i = 0; i < stations; ++i) {
        const net::StationId sid = ids[i];
        const bool tracked = i == 0;
        const sim::Time phase = sim::Time::ms(rng.uniform(0.0, 16.0));
        sim.schedule_every(sim::Time::ms(1000.0 / 60.0), phase, [&, sid, tracked] {
            net::Packet pkt;
            pkt.size_bytes = 110;
            const sim::Time sent = sim.now();
            wifi.send(sid, std::move(pkt), [&, sent, tracked](net::Packet&&) {
                const double ms = (sim.now() - sent).to_ms();
                if (tracked) {
                    ingest_ms.add(ms);
                    avatar::AvatarState s;
                    s.participant = ParticipantId{1};
                    s.captured_at = sent;
                    buffer.push(s, sim.now());
                }
            });
        });
    }
    sim.run_until(sim::Time::seconds(seconds));
    return {stations, ingest_ms.median(), ingest_ms.p99(), wifi.utilization(),
            buffer.playout_delay().to_ms()};
}

}  // namespace

int main() {
    bench::Session session{"e10"};
    session.set_seed(47);

    std::printf("\n(a) clock sync error (CWB<->GZ, 4 ms path, skewed clocks):\n");
    std::printf("%14s %10s %16s\n", "path jitter", "window", "mean error");
    double stormy_err = 0.0;
    for (const double jitter : {0.0, 2.0, 8.0}) {
        for (const std::size_t window : {1u, 8u, 32u}) {
            const double err = sync_error_ms(jitter, window);
            session.record("sync_error_ms / jitter " + std::to_string(jitter) +
                               " window " + std::to_string(window),
                           err);
            std::printf("%11.1f ms %10zu %13.3f ms\n", jitter, window, err);
            if (jitter == 8.0 && window == 1) stormy_err = err;
            if (jitter == 8.0 && window == 32)
                session.record("jitter 8 / window32_minus_window1_error_ms",
                               err - stormy_err);
        }
    }

    std::printf("\n(b) WiFi ingestion vs classroom size (60 Hz tracking streams):\n");
    std::printf("%10s %12s %12s %12s %14s\n", "stations", "p50 ms", "p99 ms",
                "airtime", "playout ms");
    double p99_small = 0.0;
    for (const std::size_t n : {5u, 30u, 60u, 120u, 200u}) {
        const WifiRow row = wifi_case(n);
        session.record("wifi / " + std::to_string(n) + " stations / ingest_p99_ms",
                       row.ingest_p99);
        std::printf("%10zu %12.2f %12.2f %11.1f%% %14.1f\n", row.stations, row.ingest_p50,
                    row.ingest_p99, row.utilization * 100.0, row.playout_ms);
        if (n == 5) p99_small = row.ingest_p99;
        if (n == 200)
            session.record("wifi / saturated_over_small_p99", row.ingest_p99 / p99_small);
    }

    // Under 8 ms jitter a 32-probe min-RTT window beats a single probe.
    session.gate({"jitter 8 / window32_minus_window1_error_ms.max", {}, 0.0});
    // Saturating the BSS (200 stations vs 5) inflates ingest p99 over 2x.
    session.gate({"wifi / saturated_over_small_p99.min", 2.0, {}});
    // A 60-headset classroom still ingests under 100 ms p99.
    session.gate({"wifi / 60 stations / ingest_p99_ms.max", {}, 100.0});
    return session.finish();
}
