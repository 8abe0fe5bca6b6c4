#pragma once
// RegionalDeployment: the paper's regional servers on the sharded engine.
// The origin CloudServer is shard 0 (Hong Kong); relay r serves regions[r]
// from shard r + 1 over a cross-shard WAN link to the origin; VrClients are
// spread round-robin, each on its region's shard. cloud::RegionalMesh places
// the relays (through its seam) and admits the clients (DESIGN.md §8.2).

#include <memory>
#include <vector>

#include "cloud/relay.hpp"
#include "cloud/vr_client.hpp"
#include "core/sharded_world.hpp"

namespace mvc::core {

struct RegionalDeploymentConfig {
    std::vector<net::Region> regions;  ///< distinct, at least one
    std::size_t clients{0};            ///< client i joins regions[i % R]
    sim::Time batch_interval{sim::Time::zero()};  ///< origin and relays
    bool lightweight{true};
    std::uint64_t seed{1};
};

class RegionalDeployment {
public:
    explicit RegionalDeployment(RegionalDeploymentConfig config);

    RegionalDeployment(const RegionalDeployment&) = delete;
    RegionalDeployment& operator=(const RegionalDeployment&) = delete;

    [[nodiscard]] ShardedWorld& world() { return world_; }
    [[nodiscard]] GlobalNode origin_node() const { return origin_node_; }
    [[nodiscard]] cloud::CloudServer& origin() { return origin_; }
    [[nodiscard]] const std::vector<GlobalNode>& relay_nodes() const { return relay_nodes_; }
    [[nodiscard]] cloud::RelayServer& relay(std::size_t r) {
        return mesh_.relay_for(config_.regions.at(r));
    }
    [[nodiscard]] const std::vector<std::unique_ptr<cloud::VrClient>>& clients() const {
        return clients_;
    }
    [[nodiscard]] std::size_t client_shard(std::size_t i) const {
        return 1 + i % config_.regions.size();
    }

private:
    RegionalDeploymentConfig config_;
    ShardedWorld world_;
    net::WanTopology wan_;
    GlobalNode origin_node_;
    cloud::CloudServer origin_;
    std::vector<GlobalNode> relay_nodes_;
    cloud::RegionalMesh mesh_;
    std::vector<std::unique_ptr<cloud::VrClient>> clients_;

    cloud::RelayPlacement place_relay(const std::string& name, net::Region region);
};

}  // namespace mvc::core
