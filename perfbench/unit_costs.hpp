#pragma once
// Unit costs for layers that run hidden inside CampusWorld or
// MetaverseClassroom, where no public boundary can be timed per call. Each
// probe drives the layer's public API with inputs shaped like the workload
// (same seed, motion, cell size, building size, payload mix) and returns
// host time per operation, the median over several timed batches.

#include <cstdint>
#include <vector>

#include "core/campus.hpp"
#include "net/packet.hpp"

namespace perfbench {
class SpanLog;
}  // namespace perfbench

namespace perfbench::unit {

/// One campus building's tick, split by layer: the AvatarPool motion and
/// dirty sweep (core), grid update + rebuild (sync), one viewer's census
/// query (sync), and one aggregator interval's enqueue + flush (sync).
struct CampusCosts {
    double pool_sweep_us{0.0};
    double grid_rebuild_us{0.0};
    double grid_query_ns{0.0};
    double aggregator_flush_us{0.0};
};
[[nodiscard]] CampusCosts campus(const mvc::core::CampusConfig& config);

/// A remote cohort on the real wire: one cloud::RelayServer and `clients`
/// full cloud::VrClients (the classroom's relay and client configuration)
/// on net::RealUdpBackend over loopback, one poll loop for `seconds` of
/// wall time. Relay and client handlers are timed through TimedBackend
/// into `log`, each poll turn that dispatched datagrams as a PollTurn span.
struct CohortCosts {
    double relay_us_p50{0.0};  ///< relay handler self time, per span
    double relay_us_p99{0.0};
    double client_us_p50{0.0};  ///< client handler self time, per span
    double relay_ns_per_copy{0.0};     ///< relay self time / copies fanned out
    double client_ns_per_update{0.0};  ///< client self time / updates applied
    double poll_turn_us_p50{0.0};
    double poll_turn_us_p99{0.0};
    double dgrams_per_turn{0.0};
    std::uint64_t wire_errors{0};  ///< decode, send and unencodable errors
    std::uint64_t applied{0};      ///< updates the clients applied
};
[[nodiscard]] CohortCosts cohort(std::size_t clients, double seconds, std::uint64_t seed,
                                 SpanLog& log);

/// One event of a Simulator holding `depth` pending events (schedule,
/// pop, dispatch of a small capture).
[[nodiscard]] double sim_event_ns(std::size_t depth, std::uint64_t seed);

/// One Channel send on the simulated Network plus its delivery, payload an
/// AvatarWire of `payload_bytes` encoded bytes.
[[nodiscard]] double net_send_ns(std::size_t payload_bytes);

/// One WireBatcher flush to `destinations`, each holding `per_destination`
/// updates of `payload_bytes`.
[[nodiscard]] double batcher_flush_us(std::size_t destinations, std::size_t per_destination,
                                      std::size_t payload_bytes);

/// net::encode_frame / decode_frame over the workload's own packets.
struct FrameCosts {
    double encode_ns{0.0};
    double decode_ns{0.0};
};
[[nodiscard]] FrameCosts frame(const std::vector<mvc::net::Packet>& samples);

/// AvatarCodec delta encode / decode of seated, swaying avatars.
struct AvatarCosts {
    double encode_ns{0.0};
    double decode_ns{0.0};
};
[[nodiscard]] AvatarCosts avatar(std::uint64_t seed);

/// One PoseFusion::observe over a classroom-sized participant set.
[[nodiscard]] double fusion_us(std::size_t participants, std::uint64_t seed);

/// One Reed-Solomon parity encode of a video FEC block.
[[nodiscard]] double fec_encode_us(std::size_t data_shards, std::size_t parity_shards,
                                   std::size_t shard_bytes);

/// recovery::encode_checkpoint over checkpoints decoded from the run's own
/// store; 0 when `encoded` is empty.
[[nodiscard]] double checkpoint_encode_us(
    const std::vector<std::vector<std::uint8_t>>& encoded);

}  // namespace perfbench::unit
