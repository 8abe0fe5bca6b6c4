// E4 — interest management for "synchronization of a large number of
// entities within a single digital space" (§3.3).
//
// The VR classroom hosts N attendees; the cloud either broadcasts every
// update to every client (naive) or filters through the AOI + distance-tier
// policy. We report per-client downstream rate and total server egress.
// Expected shape: naive egress grows ~quadratically in N; with interest
// management per-client load stays roughly flat as the classroom grows
// (far rings decay to billboard rates).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "cloud/cloud_server.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "cloud/vr_client.hpp"

using namespace mvc;

namespace {

struct Result {
    double egress_mbps{0.0};
    double per_client_kbps{0.0};
    double per_client_msgs_per_s{0.0};
    std::uint64_t suppressed_aoi{0};
    std::uint64_t suppressed_rate{0};
};

Result run(std::size_t clients, bool interest_enabled, double seconds) {
    sim::Simulator sim{23};
    net::Network net{sim};
    net::WanTopology wan;

    cloud::CloudServerConfig cc;
    cc.room = ClassroomId{1};
    cc.interest_enabled = interest_enabled;
    // Crowd-event policy: in a packed amphitheatre only immediate
    // neighbours deserve full rate; rows further out update progressively
    // slower (the default MR-room tiers are far too generous at N=200).
    cc.interest = sync::InterestPolicy{{
        {3.0, 30.0, avatar::LodLevel::High},
        {8.0, 10.0, avatar::LodLevel::Medium},
        {20.0, 3.0, avatar::LodLevel::Low},
        {80.0, 1.0, avatar::LodLevel::Billboard},
    }};
    const net::NodeId cloud_node = net.add_node("cloud", net::Region::HongKong);
    cloud::CloudServer origin{net, cloud_node, cc};

    std::vector<std::unique_ptr<cloud::VrClient>> pool;
    std::uint64_t received_before = 0;
    for (std::size_t i = 0; i < clients; ++i) {
        const ParticipantId who{static_cast<std::uint32_t>(i + 1)};
        const net::NodeId node = net.add_node("c" + std::to_string(i),
                                              net::Region::HongKong);
        net.connect_wan(node, cloud_node, wan);
        cloud::VrClientConfig vc;
        vc.name = "c" + std::to_string(i);
        vc.room = ClassroomId{1};
        vc.lightweight = true;
        vc.latency_metric = "e2e_ms";
        // Ungated 30 Hz motion streaming: the server-side interest policy,
        // not the sender, is the mechanism under test here.
        vc.replication.error_threshold = 0.0;
        vc.replication.tick_rate_hz = 30.0;
        auto client = std::make_unique<cloud::VrClient>(net, node, who, vc);
        client->join(cloud_node, *origin.attach_client(node, who));
        pool.push_back(std::move(client));
    }
    (void)received_before;
    sim.run_until(sim::Time::seconds(seconds));

    Result out;
    out.egress_mbps = static_cast<double>(origin.egress_bytes()) * 8.0 / seconds / 1e6;
    std::uint64_t received = 0;
    for (const auto& c : pool) received += c->updates_received();
    out.per_client_kbps = out.egress_mbps * 1000.0 / static_cast<double>(clients);
    out.per_client_msgs_per_s =
        static_cast<double>(received) / seconds / static_cast<double>(clients);
    out.suppressed_aoi = origin.egress().suppressed_by_aoi();
    out.suppressed_rate = origin.egress().suppressed_by_rate();
    return out;
}

}  // namespace

int main() {
    bench::Session session{"e4"};
    session.set_seed(23);

    std::printf("\n%8s %-10s %12s %16s %14s %12s %12s\n", "clients", "mode",
                "egress Mb/s", "per-client kb/s", "msgs/s/client", "aoi-drops",
                "rate-drops");
    double naive_prev = 0.0;
    double aoi_prev = 0.0;
    std::size_t prev_n = 0;
    for (const std::size_t n : {24u, 48u, 96u, 192u}) {
        const Result naive = run(n, false, 6.0);
        const Result aoi = run(n, true, 6.0);
        session.record(std::to_string(n) + "/broadcast / egress_mbps", naive.egress_mbps);
        session.record(std::to_string(n) + "/interest / egress_mbps", aoi.egress_mbps);
        session.record(std::to_string(n) + "/interest / per_client_kbps",
                       aoi.per_client_kbps);
        std::printf("%8zu %-10s %12.2f %16.1f %14.1f %12s %12s\n", n, "broadcast",
                    naive.egress_mbps, naive.per_client_kbps, naive.per_client_msgs_per_s,
                    "-", "-");
        std::printf("%8zu %-10s %12.2f %16.1f %14.1f %12llu %12llu\n", n, "interest",
                    aoi.egress_mbps, aoi.per_client_kbps, aoi.per_client_msgs_per_s,
                    static_cast<unsigned long long>(aoi.suppressed_aoi),
                    static_cast<unsigned long long>(aoi.suppressed_rate));
        if (prev_n != 0) {
            std::printf("%8s growth x%.2f (broadcast) vs x%.2f (interest) for 2x clients\n",
                        "", naive.egress_mbps / naive_prev, aoi.egress_mbps / aoi_prev);
        }
        naive_prev = naive.egress_mbps;
        aoi_prev = aoi.egress_mbps;
        prev_n = n;
    }

    const Result naive = run(192, false, 6.0);
    const Result aoi = run(192, true, 6.0);
    std::printf("\nexpected shape: interest egress well below broadcast at 192 "
                "clients -> %s (%.1fx reduction)\n",
                aoi.egress_mbps < naive.egress_mbps / 2.0 ? "PASS" : "FAIL",
                naive.egress_mbps / aoi.egress_mbps);
    return 0;
}
