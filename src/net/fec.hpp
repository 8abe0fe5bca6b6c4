#pragma once
// Application-level forward error correction (the paper's pointer to
// Nebula-style joint source coding + FEC for classroom video).
//
// Two layers:
//  - ReedSolomon: a real systematic Reed-Solomon erasure codec over GF(256)
//    (Vandermonde construction): any k of k+r shards reconstruct the data.
//  - FecStream: packet-level sender/receiver over a net::Backend that
//    groups data packets into blocks of k, appends r parity packets, and
//    reconstructs lost packets at the receiver without retransmission.
//    AdaptiveRedundancy picks r from the measured loss rate.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "math/stats.hpp"
#include "net/channel.hpp"

namespace mvc::net {

/// GF(2^8) arithmetic with the 0x11d primitive polynomial.
namespace gf256 {
[[nodiscard]] std::uint8_t mul(std::uint8_t a, std::uint8_t b);
[[nodiscard]] std::uint8_t div(std::uint8_t a, std::uint8_t b);
[[nodiscard]] std::uint8_t inv(std::uint8_t a);
[[nodiscard]] std::uint8_t exp(int e);
}  // namespace gf256

/// Systematic Reed-Solomon erasure code: k data shards, r parity shards,
/// all the same length. Any k surviving shards reconstruct everything.
class ReedSolomon {
public:
    ReedSolomon(std::size_t k, std::size_t r);

    [[nodiscard]] std::size_t data_shards() const { return k_; }
    [[nodiscard]] std::size_t parity_shards() const { return r_; }

    /// Compute parity shards from `data` (size k, equal-length shards).
    [[nodiscard]] std::vector<std::vector<std::uint8_t>> encode(
        std::span<const std::vector<std::uint8_t>> data) const;

    /// `shards` has k+r slots; nullopt marks erasures. Reconstructs all
    /// missing data shards (parity slots are also refilled). Returns false if
    /// fewer than k shards survive.
    bool reconstruct(std::vector<std::optional<std::vector<std::uint8_t>>>& shards) const;

private:
    std::size_t k_;
    std::size_t r_;
    // Full (k+r) x k encoding matrix; the top k rows are the identity.
    std::vector<std::vector<std::uint8_t>> matrix_;
};

/// Chooses parity count r for block size k given an EWMA loss estimate,
/// following the "cover expected losses plus safety margin" rule used by
/// low-latency video systems.
class AdaptiveRedundancy {
public:
    explicit AdaptiveRedundancy(double safety_factor = 2.0, std::size_t max_parity = 16);

    void observe(bool packet_lost);
    [[nodiscard]] double loss_estimate() const { return loss_.value(); }
    [[nodiscard]] std::size_t parity_for_block(std::size_t k) const;

private:
    double safety_factor_;
    std::size_t max_parity_;
    math::Ewma loss_{0.05};
};

struct FecStreamOptions {
    std::size_t block_size{8};       // k: data packets per block
    std::size_t parity{2};           // r: parity packets per block (fixed mode)
    bool adaptive{false};            // derive r from measured loss instead
    /// Max time to wait for a block to complete at the receiver before
    /// declaring unrecoverable (delivers what arrived).
    sim::Time block_timeout{sim::Time::ms(150)};
};

/// FEC-protected unidirectional packet stream src -> dst. Data packets are
/// delivered immediately on arrival; lost ones are delivered on recovery
/// (when any k of the block's k+r packets have arrived).
class FecStream {
public:
    /// payload, original send time, and whether it arrived directly (false =
    /// reconstructed from parity).
    using DeliveredFn = std::function<void(Payload payload, sim::Time sent_at, bool direct)>;
    /// Called when a packet could not be recovered before block timeout.
    using LostFn = std::function<void(Payload payload, sim::Time sent_at)>;

    FecStream(Backend& net, PacketDemux& src_demux, PacketDemux& dst_demux,
              std::string flow, FecStreamOptions options = {});

    void on_delivered(DeliveredFn fn) { delivered_cb_ = std::move(fn); }
    void on_lost(LostFn fn) { lost_cb_ = std::move(fn); }

    void send(std::size_t size_bytes, Payload payload);
    /// Force-close the current partial block (pad with parity and ship).
    void flush();

    [[nodiscard]] std::uint64_t recovered() const { return recovered_; }
    [[nodiscard]] std::uint64_t unrecoverable() const { return unrecoverable_; }
    [[nodiscard]] std::uint64_t parity_packets_sent() const { return parity_sent_; }
    [[nodiscard]] double redundancy_overhead() const;

private:
    struct Slot {  // sender-side pending data packet in the open block
        std::size_t size_bytes;
        Payload payload;
        sim::Time sent_at;
    };
    struct Wire {
        std::uint64_t block;
        std::uint32_t index;       // 0..k-1 data, k..k+r-1 parity
        std::uint32_t k;
        std::uint32_t r;
        Payload app_payload;       // empty for parity
        sim::Time first_sent;
    };
    struct RxBlock {
        std::uint32_t k{0};
        std::uint32_t r{0};
        // Data payloads by index; parity arrivals counted only.
        std::map<std::uint32_t, Wire> data;
        std::size_t parity_arrived{0};
        bool completed{false};
        sim::EventHandle timeout;
        std::vector<Wire> sender_copy;  // for reconstruction accounting
    };

    Backend& net_;
    NodeId src_;
    NodeId dst_;
    std::string flow_;
    Channel tx_;
    FecStreamOptions options_;
    AdaptiveRedundancy adaptive_;
    DeliveredFn delivered_cb_;
    LostFn lost_cb_;

    std::uint64_t next_block_{1};
    std::vector<Slot> open_block_;
    // Sender keeps block payload copies so the receiver model can account
    // reconstruction (the simulation does not ship real parity bytes).
    std::map<std::uint64_t, std::vector<Slot>> sender_blocks_;

    std::map<std::uint64_t, RxBlock> rx_;
    std::uint64_t recovered_{0};
    std::uint64_t unrecoverable_{0};
    std::uint64_t parity_sent_{0};
    std::uint64_t data_sent_{0};

    void seal_block();
    void handle_arrival(Packet&& p);
    void try_complete(std::uint64_t block_id);
    void expire_block(std::uint64_t block_id);
};

}  // namespace mvc::net
