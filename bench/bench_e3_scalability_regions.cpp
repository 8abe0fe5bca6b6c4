// E3 — scaling the VR classroom to a worldwide audience: single origin
// cloud vs regional relay servers.
// Claims (§3.3): "sharing the real-time course with thousands of remote
// users scattered worldwide"; "users located either far away ... present a
// round-trip latency in the order of the hundreds of milliseconds. Most
// gaming platforms solve this issue by setting up regional servers."
//
// Remote attendees from six regions join either directly (single cloud in
// Hong Kong) or via their regional relay. We report end-to-end avatar
// latency percentiles and server load. Expected shape: the regional mesh
// cuts p50 sharply (same-region pairs stop crossing oceans) and keeps the
// origin's queue bounded as attendance grows.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "cloud/relay.hpp"
#include "cloud/vr_client.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

using namespace mvc;

namespace {

constexpr net::Region kRegions[] = {net::Region::Seoul,   net::Region::Tokyo,
                                    net::Region::Boston,  net::Region::London,
                                    net::Region::Sydney,  net::Region::Singapore};

struct Result {
    math::SampleSeries e2e_ms;
    double origin_egress_mbps{0.0};
    double origin_queue_ms{0.0};
    double relay_egress_mbps{0.0};
};

Result run(std::size_t clients, bool mesh_mode, double seconds) {
    sim::Simulator sim{17};
    net::Network net{sim};
    net::WanTopology wan;

    cloud::CloudServerConfig cc;
    cc.room = ClassroomId{1};
    const net::NodeId cloud_node = net.add_node("cloud", net::Region::HongKong);
    cloud::CloudServer origin{net, cloud_node, cc};
    std::unique_ptr<cloud::RegionalMesh> mesh;
    if (mesh_mode) {
        mesh = std::make_unique<cloud::RegionalMesh>(net, wan, origin);
    }

    std::vector<std::unique_ptr<cloud::VrClient>> pool;
    pool.reserve(clients);
    for (std::size_t i = 0; i < clients; ++i) {
        const net::Region region = kRegions[i % std::size(kRegions)];
        const ParticipantId who{static_cast<std::uint32_t>(i + 1)};
        const net::NodeId node = net.add_node("c" + std::to_string(i), region);
        cloud::VrClientConfig vc;
        vc.name = "c" + std::to_string(i);
        vc.room = ClassroomId{1};
        vc.lightweight = true;  // latency accounting only at this scale
        vc.latency_metric = "e2e_ms";
        auto client = std::make_unique<cloud::VrClient>(net, node, who, vc);
        if (mesh_mode) {
            cloud::RelayServer& relay = mesh->relay_for(region);
            net.connect_wan(node, relay.node(), wan);
            client->join(relay.node(), mesh->attach_client(node, who, region));
        } else {
            net.connect_wan(node, cloud_node, wan);
            const auto seat = origin.attach_client(node, who);
            client->join(cloud_node, *seat);
        }
        pool.push_back(std::move(client));
    }

    sim.run_until(sim::Time::seconds(seconds));

    Result out;
    out.e2e_ms = net.metrics().series("e2e_ms");
    out.origin_egress_mbps =
        static_cast<double>(origin.egress_bytes()) * 8.0 / seconds / 1e6;
    out.origin_queue_ms = origin.mean_queue_delay_ms();
    if (mesh) {
        out.relay_egress_mbps =
            static_cast<double>(mesh->total_relay_egress()) * 8.0 / seconds / 1e6;
    }
    return out;
}

}  // namespace

int main() {
    bench::Session session{"e3"};
    session.set_seed(17);

    std::printf("\n%8s %-10s %8s %8s %8s %8s | %12s %10s %12s\n", "clients", "mode",
                "mean", "p50", "p95", "p99", "origin Mb/s", "queue ms", "relay Mb/s");
    for (const std::size_t n : {36u, 72u, 144u, 288u}) {
        for (const bool mesh : {false, true}) {
            const Result r = run(n, mesh, 8.0);
            const std::string key = std::to_string(n) + (mesh ? "/regional" : "/single");
            session.record(key + " / e2e_ms", r.e2e_ms);
            session.record(key + " / origin_egress_mbps", r.origin_egress_mbps);
            session.record(key + " / origin_queue_ms", r.origin_queue_ms);
            session.record(key + " / relay_egress_mbps", r.relay_egress_mbps);
            std::printf("%8zu %-10s %8.1f %8.1f %8.1f %8.1f | %12.2f %10.3f %12.2f\n", n,
                        mesh ? "regional" : "single", r.e2e_ms.mean(), r.e2e_ms.median(),
                        r.e2e_ms.p95(), r.e2e_ms.p99(), r.origin_egress_mbps,
                        r.origin_queue_ms, r.relay_egress_mbps);
        }
    }

    const Result single = run(144, false, 8.0);
    const Result mesh = run(144, true, 8.0);
    std::printf("\nexpected shape: regional p50 < single p50 (same-region pairs go "
                "local) -> %s\n",
                mesh.e2e_ms.median() < single.e2e_ms.median() ? "PASS" : "FAIL");
    std::printf("expected shape: regional offloads origin egress -> %s\n",
                mesh.origin_egress_mbps < single.origin_egress_mbps ? "PASS" : "FAIL");
    return 0;
}
