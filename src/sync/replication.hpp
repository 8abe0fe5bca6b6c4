#pragma once
// Avatar state replication with dead-reckoning send gating.
//
// Sender (AvatarPublisher): ticks at the replication rate; at each tick it
// compares the receiver's *predicted* view (constant-velocity extrapolation
// of the last transmitted state) against the authoritative state and only
// transmits when the perceptual error exceeds a threshold — plus periodic
// keyframes so late joiners and loss-desynced receivers resync. Updates go
// out as quantized deltas, keyframes as full snapshots.
//
// Receiver (AvatarReplica): decodes against its reference state, feeds a
// jitter buffer, and reports divergence-from-truth for the experiments.

#include <functional>
#include <vector>

#include "avatar/codec.hpp"
#include "sim/clock.hpp"
#include "sync/jitter.hpp"

namespace mvc::sync {

struct ReplicationParams {
    double tick_rate_hz{30.0};
    /// Send when predicted-vs-actual avatar_error exceeds this (metres +
    /// weighted radians). 0 disables gating (send every tick).
    double error_threshold{0.02};
    sim::Time keyframe_interval{sim::Time::seconds(1.0)};
};

/// Sender half for one participant's avatar stream.
class AvatarPublisher {
public:
    /// Sink receives encoded bytes, whether they are a keyframe, and the
    /// capture timestamp of the encoded state. The bytes live in the
    /// publisher's reused scratch buffer and are valid for the call only.
    using SinkFn = std::function<void(const std::vector<std::uint8_t>& bytes, bool keyframe,
                                      sim::Time captured_at)>;

    /// Pull-mode state source, sampled at each tick; returning nullopt skips
    /// the tick (e.g. tracking lost).
    using ProviderFn = std::function<std::optional<avatar::AvatarState>()>;

    AvatarPublisher(sim::Clock& clock, const avatar::AvatarCodec& codec,
                    ReplicationParams params, SinkFn sink);

    /// Update the authoritative state (push mode, from sensor fusion).
    void set_state(const avatar::AvatarState& state);
    /// Install a pull-mode provider; takes precedence over set_state and
    /// keeps capture timestamps aligned with send times (low jitter on the
    /// receiver's playout estimator).
    void set_provider(ProviderFn provider) { provider_ = std::move(provider); }
    void start();
    void stop();

    /// Force a keyframe at the next tick (e.g. a receiver joined).
    void request_keyframe() { keyframe_due_ = true; }

    /// Graceful degradation: scale the tick rate (1.0 = configured rate).
    /// Takes effect immediately — the periodic task is rescheduled.
    void set_rate_scale(double scale);
    /// Graceful degradation: scale the dead-reckoning error threshold
    /// (coarser gating under loss sends fewer, more significant updates).
    void set_threshold_scale(double scale);
    [[nodiscard]] double rate_scale() const { return rate_scale_; }
    [[nodiscard]] double threshold_scale() const { return threshold_scale_; }
    /// Effective tick rate after degradation scaling.
    [[nodiscard]] double effective_rate_hz() const {
        return params_.tick_rate_hz * rate_scale_;
    }

    [[nodiscard]] std::uint64_t sent_updates() const { return sent_updates_; }
    [[nodiscard]] std::uint64_t sent_keyframes() const { return sent_keyframes_; }
    [[nodiscard]] std::uint64_t suppressed() const { return suppressed_; }
    [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

private:
    sim::Clock& sim_;
    const avatar::AvatarCodec& codec_;
    ReplicationParams params_;
    SinkFn sink_;
    ProviderFn provider_;
    sim::EventHandle task_;
    bool running_{false};
    double rate_scale_{1.0};
    double threshold_scale_{1.0};

    avatar::AvatarState current_;
    bool have_state_{false};
    avatar::AvatarState last_sent_;
    sim::Time last_sent_at_{};
    sim::Time last_keyframe_at_{};
    bool sent_anything_{false};
    bool keyframe_due_{true};
    /// Encoder output, reused every tick so sending allocates nothing.
    std::vector<std::uint8_t> scratch_;

    std::uint64_t sent_updates_{0};
    std::uint64_t sent_keyframes_{0};
    std::uint64_t suppressed_{0};
    std::uint64_t bytes_sent_{0};

    void tick();
};

/// Receiver half: reconstructs the remote avatar and serves display states.
class AvatarReplica {
public:
    AvatarReplica(const avatar::AvatarCodec& codec, JitterBufferParams jitter = {});

    /// Ingest an encoded update that arrived at local time `arrival`.
    /// Deltas that arrive before any keyframe are dropped (resync pending);
    /// truncated or malformed bytes are dropped and counted, never thrown.
    void ingest(std::span<const std::uint8_t> bytes, bool keyframe, sim::Time arrival);

    /// Display state at local time `now` (jitter-buffered, interpolated).
    [[nodiscard]] std::optional<avatar::AvatarState> display(sim::Time now) const;
    /// Freshest decoded state, bypassing the jitter buffer.
    [[nodiscard]] std::optional<avatar::AvatarState> latest() const;

    /// Deterministic fingerprint of the reconstruction state (decode
    /// counters + reference avatar bit patterns). Feeds the per-node state
    /// hashes the replay divergence checker compares across runs.
    [[nodiscard]] std::uint64_t state_digest() const;

    [[nodiscard]] std::uint64_t decoded() const { return decoded_; }
    [[nodiscard]] std::uint64_t dropped_waiting_keyframe() const {
        return dropped_waiting_keyframe_;
    }
    /// Updates whose bytes failed to decode. Kept out of state_digest():
    /// it counts what the network delivered, not the reconstruction.
    [[nodiscard]] std::uint64_t dropped_malformed() const { return dropped_malformed_; }

private:
    const avatar::AvatarCodec& codec_;
    JitterBuffer buffer_;
    avatar::AvatarState reference_;
    bool have_reference_{false};
    std::uint64_t decoded_{0};
    std::uint64_t dropped_waiting_keyframe_{0};
    std::uint64_t dropped_malformed_{0};
};

}  // namespace mvc::sync
