#pragma once
// net::ChaosBackend — a transport-fault interposer. Wraps any inner Backend
// (the discrete-event Network or the RealUdpBackend) and injects scripted
// adversity per *directed* node pair on the send path: probabilistic and
// burst (Gilbert–Elliott) loss, duplication, bounded reordering, added
// delay/jitter, in-flight payload corruption, bandwidth throttling, and
// asymmetric blackhole windows. Model code opens channels against the chaos
// backend exactly as it would against the inner one; everything except
// do_send forwards through.
//
// Determinism: each directed pair draws from its own named RNG stream
// ("chaos/<src>-><dst>") derived from the inner clock's root seed, and all
// draws happen inside event callbacks, so a chaos soak under a fixed seed on
// the sim backend replays bit-identically (the E20 gate).
//
// Drop semantics mirror Link's lost-in-flight packets: a chaos-dropped send
// returns true (the packet made it onto the wire and died there), so sender
// accounting cannot distinguish chaos loss from link loss — exactly what the
// robustness layers under test must cope with. Corruption is realized
// honestly: the packet is run through encode_frame, one random bit is
// flipped, and the mangled frame is fed back to decode_frame; the CRC-32
// trailer rejects every single-bit flip, so the packet is dropped and
// counted (`chaos.corrupt_caught`). A payload without a registered wire
// codec has no bytes to flip and is dropped outright (`chaos.corrupt`).

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "net/backend.hpp"
#include "sim/rng.hpp"

namespace mvc::net {

/// Adversity recipe for one directed node pair. Default-constructed profile
/// is inert (active() == false): packets pass straight through.
struct ChaosProfile {
    /// Independent per-packet drop probability.
    double drop{0.0};

    /// Gilbert–Elliott burst loss: a two-state Markov chain stepped once per
    /// packet. Enabled when either transition probability is nonzero.
    double ge_p_bad{0.0};    ///< P(good -> bad) per packet
    double ge_p_good{0.0};   ///< P(bad -> good) per packet
    double ge_loss_bad{1.0};   ///< loss probability while in the bad state
    double ge_loss_good{0.0};  ///< loss probability while in the good state

    /// Probability a packet is delivered twice.
    double duplicate{0.0};

    /// Probability a packet is held back `reorder_hold`, letting later
    /// packets overtake it (bounded reordering).
    double reorder{0.0};
    sim::Time reorder_hold{sim::Time::ms(30)};

    /// Fixed added one-way delay plus uniform jitter in [0, jitter).
    sim::Time delay{};
    sim::Time jitter{};

    /// Probability of an in-flight bit flip (caught by the CRC frame).
    double corrupt{0.0};

    /// Serialization-rate cap in bits/s (0 = unthrottled); packets whose
    /// queueing delay would exceed `throttle_backlog` are dropped.
    double throttle_bps{0.0};
    sim::Time throttle_backlog{sim::Time::ms(200)};

    /// Swallow everything on this direction (asymmetric partition half).
    bool blackhole{false};

    [[nodiscard]] bool active() const {
        return drop > 0.0 || ge_p_bad > 0.0 || ge_p_good > 0.0 ||
               duplicate > 0.0 || reorder > 0.0 || corrupt > 0.0 ||
               throttle_bps > 0.0 || blackhole || delay > sim::Time::zero() ||
               jitter > sim::Time::zero();
    }
};

class ChaosBackend final : public Backend {
public:
    explicit ChaosBackend(Backend& inner);

    ChaosBackend(const ChaosBackend&) = delete;
    ChaosBackend& operator=(const ChaosBackend&) = delete;

    [[nodiscard]] Backend& inner() { return inner_; }

    // ------------------------------------------------------- chaos control
    /// Install `profile` on the directed pair src -> dst, replacing whatever
    /// was there; returns the previous profile (FaultPlan windows restore
    /// it). The Gilbert–Elliott chain restarts in the good state.
    ChaosProfile set_profile(NodeId src, NodeId dst, const ChaosProfile& profile);
    /// Install `profile` on both directions between a and b.
    void set_pair_profile(NodeId a, NodeId b, const ChaosProfile& profile);
    void clear_profile(NodeId src, NodeId dst);
    /// Profile currently installed on src -> dst (inert default when none).
    [[nodiscard]] ChaosProfile profile(NodeId src, NodeId dst) const;

    /// Toggle only the blackhole bit of src -> dst, preserving the rest of
    /// the installed profile (partitions compose with lossy windows).
    void set_blackhole(NodeId src, NodeId dst, bool on);

    // ------------------------------------------------ injection accounting
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
    [[nodiscard]] std::uint64_t duplicated() const { return duplicated_; }
    [[nodiscard]] std::uint64_t reordered() const { return reordered_; }
    [[nodiscard]] std::uint64_t corrupted() const { return corrupted_; }
    [[nodiscard]] std::uint64_t blackholed() const { return blackholed_; }
    [[nodiscard]] std::uint64_t throttle_dropped() const { return throttle_dropped_; }
    [[nodiscard]] std::uint64_t delayed() const { return delayed_; }

    // ------------------------------------------------- Backend forwarding
    NodeId add_node(std::string name, Region region) override;
    void set_handler(NodeId node, PacketHandler handler) override;
    [[nodiscard]] Region region_of(NodeId node) const override;
    [[nodiscard]] const std::string& name_of(NodeId node) const override;
    [[nodiscard]] std::size_t node_count() const override;
    [[nodiscard]] NodeContext& context(NodeId node) override;
    [[nodiscard]] const NodeContext& context(NodeId node) const override;
    [[nodiscard]] bool node_up(NodeId node) const override;
    void observe_node(NodeId node, NodeObserver observer) override;
    [[nodiscard]] FlowRef flow(std::string_view name) override;
    [[nodiscard]] sim::Clock& clock() override;
    [[nodiscard]] sim::MetricsRecorder& metrics() override;
    [[nodiscard]] const sim::MetricsRecorder& metrics() const override;
    void set_tap(PacketTap* tap) override;
    [[nodiscard]] PacketTap* tap() const override;

protected:
    bool do_send(NodeId src, NodeId dst, std::size_t size_bytes, FlowRef flow,
                 Payload payload, Priority priority) override;

private:
    struct PairState {
        ChaosProfile profile{};
        sim::Rng rng;
        bool ge_bad{false};
        sim::Time throttle_busy_until{};
        explicit PairState(sim::Rng r) : rng(std::move(r)) {}
    };

    Backend& inner_;
    std::map<std::pair<NodeId, NodeId>, PairState> pairs_;

    std::uint64_t dropped_{0};
    std::uint64_t duplicated_{0};
    std::uint64_t reordered_{0};
    std::uint64_t corrupted_{0};
    std::uint64_t blackholed_{0};
    std::uint64_t throttle_dropped_{0};
    std::uint64_t delayed_{0};

    sim::MetricId drop_id_;
    sim::MetricId dup_id_;
    sim::MetricId reorder_id_;
    sim::MetricId corrupt_id_;
    sim::MetricId corrupt_uncodable_id_;
    sim::MetricId blackhole_id_;
    sim::MetricId throttle_id_;
    sim::MetricId delayed_id_;

    PairState& state_for(NodeId src, NodeId dst);
    [[nodiscard]] const PairState* find_state(NodeId src, NodeId dst) const;
    /// True when the packet was corrupted (and therefore consumed).
    bool corrupt_in_flight(PairState& st, NodeId src, NodeId dst,
                           std::size_t size_bytes, const FlowRef& flow,
                           const Payload& payload, Priority priority);
    void forward_after(sim::Time delay, NodeId src, NodeId dst,
                       std::size_t size_bytes, FlowRef flow, Payload payload,
                       Priority priority);
};

}  // namespace mvc::net
