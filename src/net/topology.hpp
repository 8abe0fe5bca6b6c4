#pragma once
// Geographic regions and WAN path characteristics between them. One-way
// delays are shaped after public inter-region RTT measurements (WonderNetwork
// / cloud-provider latency matrices, 2022-era): the absolute numbers matter
// less than their ordering, which drives the regional-server experiments.

#include <array>
#include <cstdint>
#include <string_view>

#include "net/link.hpp"

namespace mvc::net {

enum class Region : std::uint8_t {
    HongKong,   // HKUST Clear Water Bay campus
    Guangzhou,  // HKUST Guangzhou campus
    Seoul,      // KAIST guests
    Tokyo,
    Singapore,
    Boston,     // MIT guests
    London,     // Cambridge guests
    Frankfurt,
    SaoPaulo,
    Sydney,
    kCount,
};

inline constexpr std::size_t kRegionCount = static_cast<std::size_t>(Region::kCount);

[[nodiscard]] std::string_view region_name(Region r);

/// All regions, for iteration in benchmarks.
[[nodiscard]] std::array<Region, kRegionCount> all_regions();

class WanTopology {
public:
    WanTopology();

    /// One-way propagation delay between two regions (intra-region pairs get
    /// a small metro delay).
    [[nodiscard]] sim::Time one_way_delay(Region a, Region b) const;

    /// Link parameters for the WAN path a->b: delay from the matrix, jitter
    /// and spike model scaled with distance, the base loss and bandwidth.
    [[nodiscard]] LinkParams path_params(Region a, Region b) const;

    /// Region whose mean delay to the given set of client regions is lowest —
    /// the "place a regional server here" primitive.
    [[nodiscard]] Region best_region_for(const std::array<std::size_t, kRegionCount>&
                                             clients_per_region) const;

private:
    // Symmetric matrix of one-way delays in ms.
    std::array<std::array<double, kRegionCount>, kRegionCount> delay_ms_{};
    double inter_region_loss_{0.001};
    double path_bandwidth_bps_{1e9};
};

}  // namespace mvc::net
