#pragma once
// The correctness bridge between the real UDP transport and the simulator.
//
// A run over RealUdpBackend records its ingress packet stream (the kernel's
// delivery order is the ground truth) plus periodic state hashes of an
// AvatarMirror — a passive observer that reconstructs every participant's
// avatar from the payloads crossing the wire. replay_in_sim() then re-drives
// the recorded packet stream through a fresh discrete-event Simulator,
// rebuilding a second mirror and a second trace with the same seed and
// stamp, and diffs the two hash sequences with the replay divergence
// checker. Bit-exact agreement means the wire format, the recorder, and the
// avatar codec round-trip losslessly between wall-clock and virtual time;
// the first differing epoch localizes any regression.

#include <cstdint>
#include <map>
#include <memory>

#include "avatar/codec.hpp"
#include "common/ids.hpp"
#include "net/backend.hpp"
#include "replay/divergence.hpp"
#include "replay/trace.hpp"
#include "sync/replication.hpp"

namespace mvc::replay {

/// Passive avatar-state observer: install as a backend's packet tap (it
/// chains to whatever tap was installed before it, so it stacks with the
/// Recorder) and it reconstructs a replica per participant from every
/// AvatarWire / AvatarBatchWire payload it sees. state_hash() digests the
/// reconstruction deterministically — the same update sequence produces the
/// same hash whether the packets crossed a real socket or a simulated link.
class AvatarMirror final : public net::PacketTap {
public:
    explicit AvatarMirror(avatar::CodecBounds bounds = {});

    /// Become `net`'s tap, forwarding to the previously installed tap (if
    /// any) after mirroring. Install *after* the Recorder so the recorder
    /// still sees every packet.
    void install(net::Backend& net);

    void on_send(const net::Packet& p, net::Priority priority) override;

    /// Trace-record ingest path used by replay_in_sim: apply one captured
    /// update exactly as the tap path would have.
    void ingest(const AvatarUpdate& update);

    /// Order-sensitive digest over all replicas (participants visited in id
    /// order; each contributes its decode counters and reference state).
    [[nodiscard]] std::uint64_t state_hash() const;

    [[nodiscard]] std::uint64_t updates() const { return updates_; }

private:
    void apply(ParticipantId who, std::span<const std::uint8_t> bytes, bool keyframe,
               std::int64_t captured_ns);

    struct Remote {
        std::unique_ptr<sync::AvatarReplica> replica;
        std::int64_t last_captured_ns{-1};
    };

    avatar::AvatarCodec codec_;
    std::map<ParticipantId, Remote> remotes_;
    net::PacketTap* chained_{nullptr};
    std::uint64_t updates_{0};
};

struct RerunResult {
    Divergence divergence;
    std::uint64_t wire_records{0};
    std::uint64_t avatar_updates{0};
    std::uint64_t hash_records{0};
};

/// Re-drive `recorded` through a fresh Simulator: every Wire record is
/// scheduled at its recorded timestamp and fed to a new AvatarMirror; every
/// StateHash record re-hashes the mirror at that instant into a second trace
/// (same seed, stamp, and epoch subjects). Returns the divergence report
/// between the recorded and re-run hash sequences — `diverged == false` is
/// the bit-exact acceptance gate for the real transport.
[[nodiscard]] RerunResult replay_in_sim(const Trace& recorded,
                                        avatar::CodecBounds bounds = {});

}  // namespace mvc::replay
