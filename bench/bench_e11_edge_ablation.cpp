// E11 (ablation) — why the architecture puts an edge server in every
// classroom (Figure 3): edge-peered direct exchange vs hair-pinning all
// avatar traffic through a cloud relay.
//
// Same two-campus class, two wirings, measured (not modelled):
//   edge-peered:    CWB edge <-> GZ edge directly
//   cloud-hairpin:  each edge talks only to the cloud, which mirrors
//                   streams to the other edge (mirror_all_streams)
// We run the hairpin against two cloud placements: Hong Kong (local region)
// and Frankfurt (the "no nearby datacenter" case). Expected shape: direct
// peering <= HK hairpin << Frankfurt hairpin; with a distant cloud the
// 100 ms budget is gone, which is exactly why Figure 3 pairs the campuses
// directly over their own link.

#include <cmath>
#include <cstdio>
#include <map>

#include "bench/bench_util.hpp"
#include "cloud/cloud_server.hpp"
#include "edge/edge_server.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

using namespace mvc;

namespace {

math::SampleSeries run(bool hairpin, net::Region cloud_region, double seconds) {
    sim::Simulator sim{59};
    net::Network net{sim};
    net::WanTopology wan;

    edge::EdgeServerConfig ca;
    ca.room = ClassroomId{1};
    ca.name = "cwb";
    edge::EdgeServerConfig cb;
    cb.room = ClassroomId{2};
    cb.name = "gz";
    const net::NodeId na = net.add_node("edge-cwb", net::Region::HongKong);
    const net::NodeId nb = net.add_node("edge-gz", net::Region::Guangzhou);
    edge::EdgeServer edge_a{net, na, ca, edge::SeatMap::grid(4, 4)};
    edge::EdgeServer edge_b{net, nb, cb, edge::SeatMap::grid(4, 4)};
    net.connect_wan(na, nb, wan);

    cloud::CloudServerConfig cc;
    cc.room = ClassroomId{3};
    cc.mirror_all_streams = hairpin;
    const net::NodeId nc = net.add_node("cloud", cloud_region);
    cloud::CloudServer cloud{net, nc, cc};
    net.connect_wan(na, nc, wan);
    net.connect_wan(nb, nc, wan);

    if (hairpin) {
        edge_a.add_peer(nc);
        edge_b.add_peer(nc);
        cloud.add_peer(na);
        cloud.add_peer(nb);
    } else {
        edge_a.add_peer(nb);
        edge_b.add_peer(na);
    }

    // Six tracked participants per room, lively circular motion.
    auto drive = [&](edge::EdgeServer& server, std::uint32_t base) {
        for (std::uint32_t i = 0; i < 6; ++i) {
            const ParticipantId who{base + i};
            server.add_local_participant(who, i);
            sim.schedule_every(sim::Time::ms(1000.0 / 90.0), [&server, who, &sim] {
                const double t = sim.now().to_seconds();
                const double phase = static_cast<double>(who.value());
                sensing::SensorSample s;
                s.participant = who;
                s.captured_at = sim.now();
                s.source = sensing::SensorSource::Headset;
                s.pose.position = {std::cos(t + phase) * 0.3, 1.2,
                                   2.0 + std::sin(t + phase) * 0.3};
                server.ingest_sample(std::move(s));
            });
        }
    };
    drive(edge_a, 1);
    drive(edge_b, 101);
    edge_a.start();
    edge_b.start();

    // Probe display latency of remote avatars in both rooms at 20 Hz,
    // sampling only when fresh updates were decoded (extrapolated frames
    // carry old capture timestamps by design).
    math::SampleSeries latency_ms;
    std::map<std::uint64_t, std::uint64_t> last_update;
    sim.schedule_every(sim::Time::ms(50), [&] {
        for (edge::EdgeServer* server : {&edge_a, &edge_b}) {
            for (const ParticipantId who : server->remote_participants()) {
                const std::uint64_t decoded = server->remote_update_count(who);
                std::uint64_t& prev =
                    last_update[(static_cast<std::uint64_t>(server->node()) << 32) |
                                who.value()];
                if (decoded <= prev) continue;
                prev = decoded;
                const auto shown = server->display_remote(who, sim.now());
                if (shown.has_value()) {
                    latency_ms.add((sim.now() - shown->captured_at).to_ms());
                }
            }
        }
    });
    sim.run_until(sim::Time::seconds(seconds));
    return latency_ms;
}

}  // namespace

int main() {
    bench::Session session{"e11"};
    session.set_seed(59);

    const math::SampleSeries direct = run(false, net::Region::HongKong, 30.0);
    const math::SampleSeries hairpin_hk = run(true, net::Region::HongKong, 30.0);
    const math::SampleSeries hairpin_fra = run(true, net::Region::Frankfurt, 30.0);

    std::printf("\nCWB<->GZ avatar display latency:\n");
    session.latency_row("edge-peered (Figure 3)", direct);
    session.latency_row("hairpin via HK cloud", hairpin_hk);
    session.latency_row("hairpin via Frankfurt cloud", hairpin_fra);

    std::printf("\nexpected shape: direct <= HK hairpin < Frankfurt hairpin -> %s\n",
                direct.median() <= hairpin_hk.median() &&
                        hairpin_hk.median() < hairpin_fra.median()
                    ? "PASS"
                    : "FAIL");
    std::printf("expected shape: distant-cloud hairpin busts the 100 ms budget while "
                "direct peering holds it -> %s (%.1f vs %.1f ms p95)\n",
                hairpin_fra.p95() > 100.0 && direct.p95() < 100.0 ? "PASS" : "FAIL",
                hairpin_fra.p95(), direct.p95());
    return 0;
}
