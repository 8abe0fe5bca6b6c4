// E19 — real transport behind the net seam: the same model code that runs
// inside the discrete-event Network runs over actual UDP sockets on
// loopback, and the run is held to the simulator's determinism contract.
//
//  - section A: loopback wire-rate sweep — datagrams/sec and payload MB/s
//    through encode_frame -> sendto -> poll -> decode_frame across payload
//    sizes, with the delivery ratio as a sanity floor (loopback should not
//    drop under paced bursts);
//  - section B: an unmodified classroom slice — RelayServer + VrClients,
//    the exact classes the simulation benches drive — joined over a
//    RealUdpBackend, publishing avatars through real sockets with interest
//    management and fan-out intact;
//  - section C: the correctness bridge — section B's run is recorded at the
//    ingress tap (Recorder + AvatarMirror with per-epoch state hashes) and
//    then re-driven through a fresh Simulator by replay_in_sim(); the
//    record->rerun hash streams must be bit-exact.
//
// Exit code gates the CI realnet stage (tools/ci.sh --realnet).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "cloud/relay.hpp"
#include "cloud/vr_client.hpp"
#include "cloud/vr_layout.hpp"
#include "core/wire_codecs.hpp"
#include "net/channel.hpp"
#include "net/real_udp.hpp"
#include "replay/recorder.hpp"
#include "replay/rerun.hpp"
#include "replay/trace.hpp"

using namespace mvc;

namespace {

constexpr std::uint64_t kSeed = 19;

double now_seconds() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct SweepPoint {
    std::size_t payload_bytes{0};
    double dgrams_per_sec{0.0};
    double payload_mb_per_sec{0.0};
    double delivery_ratio{0.0};
};

// One wire-rate measurement: blast `total` datagrams of `payload_bytes`
// through a fresh backend in paced bursts (poll between bursts so the
// kernel's socket buffers never overflow), then report the sustained rate.
SweepPoint sweep_size(std::size_t payload_bytes, std::size_t total) {
    net::RealUdpBackend net{net::RealUdpBackend::Options{.seed = kSeed}};
    const net::NodeId a = net.add_node("a", net::Region::HongKong);
    const net::NodeId b = net.add_node("b", net::Region::HongKong);
    std::uint64_t delivered = 0;
    net.set_handler(b, [&](net::Packet&&) { ++delivered; });
    net::Channel tx = net.open_channel({.src = a, .dst = b, .flow = "bulk"});
    const std::string body(payload_bytes, 'x');

    // The kernel's receive buffer is the only queue on this path; cap the
    // bytes in flight well under its default so the sweep measures the wire
    // rate, not the overflow drop rate.
    const std::size_t window = std::max<std::size_t>(
        1, std::min<std::size_t>(64, (96 * 1024) / payload_bytes));
    const double t0 = now_seconds();
    std::size_t sent = 0;
    std::size_t lost = 0;  // gap conceded after a drain stall (dropped dgrams)
    while (sent < total) {
        tx.send(payload_bytes, net::Payload{body});
        ++sent;
        if (sent - delivered - lost >= window) {
            net.poll_once(sim::Time::zero());
            for (int spin = 0; spin < 50 && sent - delivered - lost >= window; ++spin)
                net.poll_once(sim::Time::ms(1));
            if (sent - delivered - lost >= window) lost = sent - delivered;
        }
    }
    // Grace drain: whatever is still queued in the kernel.
    for (int spin = 0; spin < 200 && delivered + lost < sent; ++spin)
        net.poll_once(sim::Time::ms(1));
    const double wall = now_seconds() - t0;

    SweepPoint p;
    p.payload_bytes = payload_bytes;
    p.dgrams_per_sec = static_cast<double>(delivered) / wall;
    p.payload_mb_per_sec =
        static_cast<double>(delivered * payload_bytes) / wall / (1024.0 * 1024.0);
    p.delivery_ratio = static_cast<double>(delivered) / static_cast<double>(sent);
    return p;
}

}  // namespace

int main() {
    bench::Session session{"e19"};
    session.set_seed(kSeed);
    core::register_wire_codecs();

    const bool quick = std::getenv("E19_QUICK") != nullptr;
    const std::size_t sweep_dgrams = quick ? 4'000 : 40'000;
    const double classroom_wall_s = quick ? 1.5 : 4.0;
    const std::size_t clients_n = quick ? 6 : 12;

    // ------------------------------------------------- A: wire-rate sweep
    std::printf("\nA. loopback wire rate vs payload size (%zu datagrams each)\n",
                sweep_dgrams);
    for (const std::size_t size : {std::size_t{64}, std::size_t{512},
                                   std::size_t{4096}, std::size_t{16384}}) {
        const SweepPoint p = sweep_size(size, sweep_dgrams);
        std::printf("  %6zu B: %9.0f dgram/s  %8.1f MiB/s  delivery %.4f\n",
                    p.payload_bytes, p.dgrams_per_sec, p.payload_mb_per_sec,
                    p.delivery_ratio);
        const std::string prefix = "A sweep " + std::to_string(size) + "B / ";
        session.record(prefix + "dgrams_per_sec", p.dgrams_per_sec);
        session.record(prefix + "payload_mb_per_sec", p.payload_mb_per_sec);
        session.record(prefix + "delivery_ratio", p.delivery_ratio);
        session.record("A sweep / delivery_ratio", p.delivery_ratio);
    }

    // ------------------------- B: classroom model over real UDP + C: record
    std::printf("\nB. RelayServer + %zu VrClients over UDP loopback (%.1f s wall)\n",
                clients_n, classroom_wall_s);
    net::RealUdpBackend net{net::RealUdpBackend::Options{.seed = kSeed}};
    const net::NodeId relay_node = net.add_node("relay", net::Region::HongKong);
    cloud::RelayServer relay{net, relay_node, cloud::RelayConfig{}};

    replay::MemorySink sink;
    replay::Recorder rec{sink, kSeed, "bench-e19 realnet loopback", 0};
    rec.attach(net);
    replay::AvatarMirror mirror;  // install after the recorder: both tap
    mirror.install(net);

    cloud::VrLayout layout;
    std::vector<std::unique_ptr<cloud::VrClient>> clients;
    for (std::size_t i = 0; i < clients_n; ++i) {
        const ParticipantId who{static_cast<std::uint32_t>(i + 1)};
        const net::NodeId node =
            net.add_node("c" + std::to_string(i), net::Region::HongKong);
        cloud::VrClientConfig vc;
        vc.name = "c" + std::to_string(i);
        vc.room = ClassroomId{1};
        auto client = std::make_unique<cloud::VrClient>(net, node, who, vc);
        const math::Pose seat = layout.seat_pose(i);
        relay.attach_client(node, who, seat.position);
        client->join(relay_node, seat);
        clients.push_back(std::move(client));
    }

    // Epoch hasher: every 100 ms of wall time, drain staged wire records
    // (file order must match arrival order) and snapshot the mirror.
    const std::uint32_t subject = rec.subject("mirror");
    std::uint64_t epoch = 0;
    net.wall_clock().schedule_every(sim::Time::ms(100), [&] {
        rec.drain_all();
        rec.record_hash(epoch++, subject, mirror.state_hash(), net.clock().now());
    });

    net.run_for(sim::Time::seconds(classroom_wall_s));
    rec.drain_all();
    rec.record_hash(epoch++, subject, mirror.state_hash(), net.clock().now());
    rec.finish();

    std::uint64_t client_rx = 0;
    std::uint64_t client_tx = 0;
    for (const auto& c : clients) {
        client_rx += c->updates_received();
        client_tx += c->updates_sent();
    }
    std::printf("  published %llu, fanned out %llu, relay in/out %llu/%llu\n",
                static_cast<unsigned long long>(client_tx),
                static_cast<unsigned long long>(client_rx),
                static_cast<unsigned long long>(relay.messages_in()),
                static_cast<unsigned long long>(relay.messages_out()));
    const double bytes_per_datagram =
        net.datagrams_sent() > 0 ? static_cast<double>(net.bytes_sent()) /
                                       static_cast<double>(net.datagrams_sent())
                                 : 0.0;
    std::printf("  datagrams sent %llu received %llu, decode errors %llu\n",
                static_cast<unsigned long long>(net.datagrams_sent()),
                static_cast<unsigned long long>(net.datagrams_received()),
                static_cast<unsigned long long>(net.decode_errors()));
    std::printf("  %.1f frame bytes per datagram sent\n", bytes_per_datagram);
    session.record("B clients / updates_sent",
                   static_cast<double>(client_tx));
    session.record("B clients / updates_received",
                   static_cast<double>(client_rx));
    session.record("B relay / messages_in", static_cast<double>(relay.messages_in()));
    session.record("B relay / messages_out", static_cast<double>(relay.messages_out()));
    session.record("B wire / datagrams_sent",
                   static_cast<double>(net.datagrams_sent()));
    session.record("B wire / decode_errors", static_cast<double>(net.decode_errors()));
    session.record("B wire / bytes_per_datagram", bytes_per_datagram);

    std::printf("\nC. record on the real wire -> replay in the simulator\n");
    replay::RerunResult rerun;
    if (rec.error().empty()) {
        const replay::Trace recorded = replay::Trace::parse(sink.take());
        rerun = replay::replay_in_sim(recorded);
        session.count("C rerun / divergences", rerun.divergence.diverged ? 1 : 0);
        std::printf("  %llu wire records, %llu avatar updates, %llu hashes: "
                    "diverged=%s (%llu compared)\n",
                    static_cast<unsigned long long>(rerun.wire_records),
                    static_cast<unsigned long long>(rerun.avatar_updates),
                    static_cast<unsigned long long>(rerun.hash_records),
                    rerun.divergence.diverged ? "YES" : "no",
                    static_cast<unsigned long long>(rerun.divergence.compared));
        if (rerun.divergence.diverged)
            std::printf("    %s\n", rerun.divergence.detail.c_str());
    } else {
        std::printf("  recording failed: %s\n", rec.error().c_str());
    }
    session.record("C rerun / hashes_compared",
                   static_cast<double>(rerun.divergence.compared));
    session.record("C rerun / avatar_updates",
                   static_cast<double>(rerun.avatar_updates));
    session.count("C rerun / hash_records", rerun.hash_records);

    // ------------------------------------------------------------------ gates
    // Loopback delivers at least 99% of datagrams at every payload size.
    session.gate({"A sweep / delivery_ratio.min", 0.99, {}});
    // Classroom fan-out flows over real sockets with zero decode errors.
    session.gate({"B clients / updates_received.min", 1.0, {}});
    session.gate({"B wire / decode_errors.max", {}, 0.0});
    // The real-wire trace replays bit-exact in the simulator; a failed
    // recording leaves "C rerun / divergences" unrecorded, which fails.
    session.gate({"C rerun / divergences", {}, 0.0});
    session.gate({"C rerun / hash_records", 1.0, {}});
    session.gate({"C rerun / avatar_updates.min", 1.0, {}});
    return session.finish();
}
