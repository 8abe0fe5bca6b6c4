#pragma once
// Shared-medium WiFi model for the in-classroom hop between headsets and the
// edge server. Captures the three effects that matter for sync latency:
// (1) one transmitter at a time (shared serializer), (2) CSMA/CA contention
// backoff that grows with the number of active stations, (3) per-try frame
// corruption with bounded retries, after which the frame is lost.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/backend.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace mvc::net {

struct WifiParams {
    /// PHY rate shared by all stations (802.11ac-class default).
    double rate_bps{200e6};
    /// Fixed per-frame overhead (preamble, SIFS/DIFS, ACK).
    sim::Time frame_overhead{sim::Time::us(60)};
    /// Mean contention backoff per contending station (one 802.11 slot).
    sim::Time backoff_per_station{sim::Time::us(9)};
    /// Contention saturates once this many stations fight for the medium
    /// (the contention window stops growing).
    std::size_t max_contenders{16};
    /// Probability a single transmission attempt is corrupted.
    double per_try_loss{0.02};
    /// Retransmission limit before the frame is dropped.
    int max_retries{4};
    /// Per-station queue capacity in bytes.
    std::size_t queue_bytes{128 * 1024};
};

using StationId = std::uint32_t;

class WifiChannel {
public:
    WifiChannel(sim::Simulator& sim, std::string name, WifiParams params);

    /// Add a station to the BSS; more stations = more contention.
    StationId add_station();

    /// Transmit a packet from `station`. Returns false if the station's queue
    /// overflowed. Delivery callback runs at the access point / receiver.
    bool send(StationId station, Packet packet, PacketHandler deliver);

    [[nodiscard]] const WifiParams& params() const { return params_; }
    [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
    [[nodiscard]] std::uint64_t lost() const { return lost_; }
    [[nodiscard]] std::uint64_t dropped_queue() const { return dropped_queue_; }
    [[nodiscard]] std::uint64_t retries() const { return retries_; }
    /// Fraction of airtime used over the lifetime of the channel.
    [[nodiscard]] double utilization() const;

private:
    struct Station {
        std::size_t backlog_bytes{0};
    };

    sim::Simulator& sim_;
    std::string name_;
    WifiParams params_;
    sim::Rng rng_;
    std::vector<Station> stations_;
    sim::Time busy_until_{};
    sim::Time airtime_used_{};
    std::uint64_t delivered_{0};
    std::uint64_t lost_{0};
    std::uint64_t dropped_queue_{0};
    std::uint64_t retries_{0};

    /// Number of stations considered "contending" right now: stations with
    /// backlog plus the sender itself.
    [[nodiscard]] std::size_t contenders() const;
};

}  // namespace mvc::net
