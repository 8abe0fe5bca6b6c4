// E7 — low-latency classroom video: plain UDP vs ARQ retransmission vs
// application-level FEC (the paper's pointer to Nebula-style joint source
// coding + FEC).
//
// A 720p instructor stream crosses the WAN to a remote campus under a loss
// sweep. Expected shape: ARQ recovers everything but pays one or more RTTs
// exactly when loss bites, busting the playout deadline on long paths; FEC
// pays constant redundancy overhead and keeps p99 frame delay flat; plain
// UDP is cheap but quality collapses with loss.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "media/video.hpp"
#include "net/fec.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

using namespace mvc;

namespace {

struct Row {
    const char* transport;
    double loss;
    double quality_db;
    double complete_ratio;
    double p50_delay_ms;
    double p99_delay_ms;
    double overhead_pct;  // extra bytes vs the raw stream
};

enum class Transport { Udp, Arq, Fec };

Row run(Transport transport, double loss, double one_way_ms, double deadline_ms,
        double seconds = 30.0) {
    sim::Simulator sim{37};
    net::Network net{sim};
    const net::NodeId tx = net.add_node("lecturer", net::Region::HongKong);
    const net::NodeId rx_node = net.add_node("campus", net::Region::Boston);
    net::LinkParams link;
    link.latency = sim::Time::ms(one_way_ms);
    link.jitter = sim::Time::ms(2.0);
    link.loss = loss;
    link.bandwidth_bps = 50e6;
    net.connect(tx, rx_node, link);

    net::PacketDemux demux_tx{net, tx};
    net::PacketDemux demux_rx{net, rx_node};

    const media::VideoProfile profile = media::profile_720p();
    const sim::Time playout = sim::Time::ms(deadline_ms);
    media::VideoReceiver receiver{sim, profile, playout};

    std::uint64_t payload_bytes = 0;
    std::uint64_t wire_bytes = 0;

    // Transport plumbing.
    std::unique_ptr<net::ReliableChannel> arq;
    std::unique_ptr<net::FecStream> fec;
    if (transport == Transport::Arq) {
        net::ReliableOptions opts;
        opts.ordered = false;  // frames reassembled by index; no HoL blocking
        arq = std::make_unique<net::ReliableChannel>(net, demux_tx, demux_rx, "video",
                                                     opts);
        arq->on_delivered([&](net::Payload payload, sim::Time, int) {
            receiver.ingest(payload.take<media::VideoPacket>());
        });
    } else if (transport == Transport::Fec) {
        net::FecStreamOptions opts;
        opts.block_size = 10;
        opts.adaptive = true;
        opts.block_timeout = playout;
        fec = std::make_unique<net::FecStream>(net, demux_tx, demux_rx, "video", opts);
        fec->on_delivered([&](net::Payload payload, sim::Time, bool) {
            receiver.ingest(payload.take<media::VideoPacket>());
        });
    } else {
        demux_rx.on_flow("video", [&](net::Packet&& p) {
            receiver.ingest(p.payload.take<media::VideoPacket>());
        });
    }

    media::VideoSource source{sim, "cam", profile, [&](media::VideoFrame&& frame) {
        for (const media::VideoPacket& pkt : media::packetize(frame)) {
            payload_bytes += pkt.size_bytes;
            switch (transport) {
                case Transport::Udp:
                    net.send(tx, rx_node, pkt.size_bytes, "video", pkt);
                    break;
                case Transport::Arq:
                    arq->send(pkt.size_bytes, pkt);
                    break;
                case Transport::Fec:
                    fec->send(pkt.size_bytes, pkt);
                    break;
            }
        }
        // Low-latency FEC closes its block at each frame boundary instead of
        // letting the tail of a frame wait for packets of the next one.
        if (transport == Transport::Fec) fec->flush();
    }};
    source.start();
    sim.run_until(sim::Time::seconds(seconds));
    source.stop();
    sim.run_until(sim.now() + sim::Time::seconds(2));
    receiver.finish();

    wire_bytes = net.metrics().counter("net.tx_bytes.video") +
                 net.metrics().counter("net.tx_bytes.video.ack");

    const media::PlaybackStats& stats = receiver.stats();
    Row row;
    row.transport = transport == Transport::Udp   ? "udp"
                    : transport == Transport::Arq ? "arq"
                                                  : "fec";
    row.loss = loss;
    row.quality_db = stats.delivered_quality_db(profile, seconds);
    const double total = static_cast<double>(stats.frames_complete + stats.frames_missed);
    row.complete_ratio =
        total > 0.0 ? static_cast<double>(stats.frames_complete) / total : 0.0;
    row.p50_delay_ms = stats.frame_delay_ms.median();
    row.p99_delay_ms = stats.frame_delay_ms.p99();
    row.overhead_pct = payload_bytes > 0
                           ? 100.0 * (static_cast<double>(wire_bytes) /
                                          static_cast<double>(payload_bytes) -
                                      1.0)
                           : 0.0;
    return row;
}

}  // namespace

int main() {
    bench::Session session{"e7"};
    session.set_seed(37);

    const double one_way_ms = 105.0;  // HK -> Boston

    // (a) Relaxed deadline: ARQ has time to retransmit; the question is how
    // much tail latency it costs versus FEC's constant overhead.
    const double relaxed = 2.0 * 2.0 * one_way_ms + 200.0;  // 2 RTT + slack
    std::printf("\n(a) relaxed playout deadline %.0f ms (ARQ can recover):\n", relaxed);
    std::printf("%-6s %7s %12s %10s %12s %12s %10s\n", "mode", "loss", "quality dB",
                "complete", "p50 ms", "p99 ms", "overhead");
    Row fec_at_3{};
    Row arq_at_3{};
    Row udp_at_3{};
    for (const double loss : {0.0, 0.01, 0.03, 0.08}) {
        for (const Transport t : {Transport::Udp, Transport::Arq, Transport::Fec}) {
            const Row r = run(t, loss, one_way_ms, relaxed);
            const std::string key = std::string{"relaxed/"} + r.transport + "@" +
                                    std::to_string(loss);
            session.record(key + " / quality_db", r.quality_db);
            session.record(key + " / p99_delay_ms", r.p99_delay_ms);
            std::printf("%-6s %6.1f%% %12.1f %9.1f%% %12.1f %12.1f %9.1f%%\n", r.transport,
                        loss * 100.0, r.quality_db, r.complete_ratio * 100.0,
                        r.p50_delay_ms, r.p99_delay_ms, r.overhead_pct);
            if (loss == 0.03) {
                if (t == Transport::Fec) fec_at_3 = r;
                if (t == Transport::Arq) arq_at_3 = r;
                if (t == Transport::Udp) udp_at_3 = r;
            }
        }
    }

    // (b) Interactive deadline: retransmissions simply arrive too late, so
    // ARQ collapses to UDP quality while FEC keeps its dB.
    const double tight = 2.0 * one_way_ms + 80.0;
    std::printf("\n(b) interactive playout deadline %.0f ms (one shot per packet):\n",
                tight);
    std::printf("%-6s %7s %12s %10s %12s %12s %10s\n", "mode", "loss", "quality dB",
                "complete", "p50 ms", "p99 ms", "overhead");
    Row tight_fec{};
    Row tight_arq{};
    for (const Transport t : {Transport::Udp, Transport::Arq, Transport::Fec}) {
        const Row r = run(t, 0.03, one_way_ms, tight);
        session.record(std::string{"interactive/"} + r.transport + " / quality_db",
                       r.quality_db);
        std::printf("%-6s %6.1f%% %12.1f %9.1f%% %12.1f %12.1f %9.1f%%\n", r.transport,
                    3.0, r.quality_db, r.complete_ratio * 100.0, r.p50_delay_ms,
                    r.p99_delay_ms, r.overhead_pct);
        if (t == Transport::Fec) tight_fec = r;
        if (t == Transport::Arq) tight_arq = r;
    }

    session.record("relaxed@3% / arq_minus_fec_p99_delay_ms",
                   arq_at_3.p99_delay_ms - fec_at_3.p99_delay_ms);
    session.record("relaxed@3% / fec_minus_udp_quality_db",
                   fec_at_3.quality_db - udp_at_3.quality_db);
    session.record("interactive@3% / fec_minus_arq_quality_db",
                   tight_fec.quality_db - tight_arq.quality_db);

    // At 3% loss over a 210 ms RTT: with a relaxed deadline FEC's p99 delay
    // beats ARQ's and its quality beats plain UDP's; with an interactive
    // deadline FEC's quality beats ARQ's.
    session.gate({"relaxed@3% / arq_minus_fec_p99_delay_ms.min", 0.0, {}});
    session.gate({"relaxed@3% / fec_minus_udp_quality_db.min", 0.0, {}});
    session.gate({"interactive@3% / fec_minus_arq_quality_db.min", 0.0, {}});
    return session.finish();
}
