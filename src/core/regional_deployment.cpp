#include "core/regional_deployment.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace mvc::core {

namespace {

cloud::CloudServerConfig origin_config(const RegionalDeploymentConfig& d) {
    cloud::CloudServerConfig c;
    c.room = ClassroomId{1};
    c.batch_interval = d.batch_interval;
    return c;
}

cloud::RelayConfig relay_config(const RegionalDeploymentConfig& d) {
    cloud::RelayConfig c;
    c.batch_interval = d.batch_interval;
    return c;
}

}  // namespace

RegionalDeployment::RegionalDeployment(RegionalDeploymentConfig config)
    : config_(std::move(config)),
      world_(1 + config_.regions.size(), config_.seed),
      origin_node_(world_.add_node(0, "cloud", net::Region::HongKong)),
      origin_(world_.network(0), origin_node_.node, origin_config(config_)),
      relay_nodes_(config_.regions.size()),
      mesh_(origin_,
            [this](const std::string& name, net::Region region) {
                return place_relay(name, region);
            },
            relay_config(config_)) {
    // Every relay up front, in region order: shard ids and proxies do not
    // depend on which client arrives first.
    for (const net::Region region : config_.regions) (void)mesh_.relay_for(region);
    if (config_.regions.empty() || mesh_.relay_count() != config_.regions.size())
        throw std::invalid_argument("RegionalDeployment: regions must be distinct, at least one");

    clients_.reserve(config_.clients);
    for (std::size_t i = 0; i < config_.clients; ++i) {
        const std::size_t r = i % config_.regions.size();
        net::Network& net = world_.network(r + 1);
        const ParticipantId who{static_cast<std::uint32_t>(i + 1)};
        cloud::VrClientConfig vc;
        vc.name = "c" + std::to_string(i);
        vc.room = ClassroomId{1};
        vc.lightweight = config_.lightweight;
        vc.latency_metric = "e2e_ms";
        const net::NodeId node = net.add_node(vc.name, config_.regions[r]);
        net.connect_wan(node, relay_nodes_[r].node, wan_);
        auto client = std::make_unique<cloud::VrClient>(net, node, who, std::move(vc));

        const math::Pose seat = mesh_.attach_client(node, who, config_.regions[r]);
        origin_.place_entity(who);
        client->join(relay_nodes_[r].node, seat);
        clients_.push_back(std::move(client));
    }
}

cloud::RelayPlacement RegionalDeployment::place_relay(const std::string& name,
                                                      net::Region region) {
    const auto r = static_cast<std::size_t>(
        std::find(config_.regions.begin(), config_.regions.end(), region) -
        config_.regions.begin());
    const GlobalNode node = world_.add_node(r + 1, name, region);  // throws if not deployed
    world_.connect_cross_wan(node, origin_node_, wan_);
    relay_nodes_[r] = node;
    return {world_.network(r + 1), node.node, world_.proxy_in(r + 1, origin_node_),
            world_.proxy_in(0, node)};
}

}  // namespace mvc::core
