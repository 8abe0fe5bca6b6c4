#pragma once
// Lecture playback from a trace alone — the "recorded lecture for absent
// students" workload. The replayer owns a fresh sync::AvatarReplica per
// participant and feeds it the captured avatar payloads in record order, at
// any speed (0 = as fast as possible, 1 = realtime, 4 = 4x, ...). No
// simulator, no network: the trace carries everything.
//
// Seek rides the recovery layer's checkpoints: each trace Checkpoint record
// is a ClassroomCheckpoint whose ReplicaRecords hold full reference states.
// seek(t) restores the newest checkpoints at or before t as keyframes, then
// fast-forwards the remaining records up to t. Exactly like crash recovery,
// a restored reference re-anchors delta decoding — replicas converge to the
// straight-play state at the next keyframe, and per-update capture
// timestamps make replayed duplicates (fan-out copies of one update) and
// already-applied history idempotent to ingest.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "avatar/codec.hpp"
#include "common/ids.hpp"
#include "replay/trace.hpp"
#include "sim/time.hpp"
#include "sync/replication.hpp"

namespace mvc::replay {

struct PlaybackStats {
    std::uint64_t records{0};         ///< all records processed (any kind)
    std::uint64_t wire_packets{0};
    std::uint64_t wire_bytes{0};      ///< payload + header bytes replayed
    std::uint64_t avatar_updates{0};  ///< ingested into replicas
    std::uint64_t keyframes{0};
    std::uint64_t stale_skipped{0};   ///< dedupe: capture older than applied
    std::uint64_t checkpoints_applied{0};
    std::uint64_t seeks{0};
    /// Wall seconds spent sleeping for pacing (0 when speed == 0).
    double paced_wall_seconds{0.0};
};

class Replayer {
public:
    /// `bounds` must match the codec bounds of the recorded run (the
    /// classroom default unless the scenario overrides them).
    explicit Replayer(const Trace& trace, avatar::CodecBounds bounds = {});

    /// Process records with t <= until, starting after position(). `speed`
    /// is the sim-time-to-wall-time ratio; 0 plays as fast as possible.
    void play_until(sim::Time until, double speed = 0.0);
    void play_all(double speed = 0.0);

    /// Checkpoint-indexed jump; returns the new position. Seeking backwards
    /// rewinds first. Replica state converges to straight-play state after
    /// the next keyframe (same contract as crash recovery).
    sim::Time seek(sim::Time target);

    [[nodiscard]] sim::Time position() const { return position_; }
    [[nodiscard]] sim::Time end() const { return sim::Time::ns(trace_.last_t_ns()); }

    [[nodiscard]] std::vector<ParticipantId> participants() const;
    /// Freshest reconstructed state for one participant.
    [[nodiscard]] std::optional<avatar::AvatarState> latest(ParticipantId p) const;

    [[nodiscard]] const PlaybackStats& stats() const { return stats_; }
    [[nodiscard]] const Trace& trace() const { return trace_; }

private:
    struct Remote {
        std::unique_ptr<sync::AvatarReplica> replica;
        std::int64_t last_captured_ns{-1};
    };

    Remote& remote(ParticipantId p);
    void apply_wire(const WireRecord& w);
    void apply_checkpoint(const CheckpointRecord& c);

    const Trace& trace_;
    avatar::AvatarCodec codec_;
    Trace::Cursor cursor_;
    /// Decoded-but-not-yet-due record lookahead (cursor reads one past).
    std::optional<Record> pending_;
    sim::Time position_{};
    std::map<ParticipantId, Remote> remotes_;
    PlaybackStats stats_;
};

}  // namespace mvc::replay
