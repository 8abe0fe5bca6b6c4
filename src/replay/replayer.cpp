#include "replay/replayer.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/packet.hpp"  // kHeaderBytes
#include "recovery/checkpoint.hpp"

namespace mvc::replay {

namespace {
std::optional<std::int64_t> record_t(const Record& r) {
    if (const auto* w = std::get_if<WireRecord>(&r)) return w->t_ns;
    if (const auto* h = std::get_if<HashRecord>(&r)) return h->t_ns;
    if (const auto* c = std::get_if<CheckpointRecord>(&r)) return c->t_ns;
    return std::nullopt;
}
}  // namespace

Replayer::Replayer(const Trace& trace, avatar::CodecBounds bounds)
    : trace_(trace), codec_(bounds, {}), cursor_(trace.cursor()) {}

Replayer::Remote& Replayer::remote(ParticipantId p) {
    const auto it = remotes_.find(p);
    if (it != remotes_.end()) return it->second;
    Remote rm;
    rm.replica = std::make_unique<sync::AvatarReplica>(codec_);
    return remotes_.emplace(p, std::move(rm)).first->second;
}

void Replayer::apply_wire(const WireRecord& w) {
    ++stats_.wire_packets;
    stats_.wire_bytes += w.size_bytes + net::kHeaderBytes;
    for (const AvatarUpdate& u : w.avatars) {
        Remote& rm = remote(ParticipantId{u.participant});
        // Fan-out copies and re-scanned history carry capture timestamps at
        // or before what this replica already holds: skip them. Strictly
        // newer updates (deltas against the current reference) apply.
        if (u.captured_ns <= rm.last_captured_ns) {
            ++stats_.stale_skipped;
            continue;
        }
        rm.replica->ingest(u.bytes, u.keyframe, sim::Time::ns(w.t_ns));
        rm.last_captured_ns = u.captured_ns;
        ++stats_.avatar_updates;
        if (u.keyframe) ++stats_.keyframes;
    }
}

void Replayer::apply_checkpoint(const CheckpointRecord& c) {
    const recovery::ClassroomCheckpoint cp = recovery::decode_checkpoint(c.bytes);
    for (const recovery::ReplicaRecord& r : cp.replicas) {
        if (r.reference.empty()) continue;
        Remote& rm = remote(r.participant);
        if (r.captured_at_ns <= rm.last_captured_ns) continue;
        // The reference is a full encoded state: re-ingest as a keyframe so
        // subsequent deltas decode against it (the crash-recovery contract).
        rm.replica->ingest(r.reference, true, sim::Time::ns(r.captured_at_ns));
        rm.last_captured_ns = r.captured_at_ns;
    }
    ++stats_.checkpoints_applied;
}

void Replayer::play_until(sim::Time until, double speed) {
    const auto wall_start = std::chrono::steady_clock::now();
    const sim::Time base = position_;
    Record rec;
    for (;;) {
        if (!pending_.has_value()) {
            if (!cursor_.next(rec)) break;
            pending_ = std::move(rec);
        }
        const auto t = record_t(*pending_);
        if (t.has_value() && *t > until.nanos()) break;
        if (t.has_value() && speed > 0.0 && *t > base.nanos()) {
            const auto target_offset = std::chrono::nanoseconds(
                static_cast<std::int64_t>(static_cast<double>(*t - base.nanos()) / speed));
            const auto deadline = wall_start + target_offset;
            const auto now = std::chrono::steady_clock::now();
            if (deadline > now + std::chrono::milliseconds(1)) {
                std::this_thread::sleep_until(deadline);
                stats_.paced_wall_seconds +=
                    std::chrono::duration<double>(std::chrono::steady_clock::now() - now)
                        .count();
            }
        }
        ++stats_.records;
        if (const auto* w = std::get_if<WireRecord>(&*pending_)) {
            apply_wire(*w);
        }
        // Checkpoints and hashes need no action during straight play: the
        // replicas already hold state at least as fresh as any checkpoint
        // reference taken before now.
        if (t.has_value()) position_ = std::max(position_, sim::Time::ns(*t));
        pending_.reset();
    }
    position_ = std::max(position_, until);
}

void Replayer::play_all(double speed) { play_until(end(), speed); }

sim::Time Replayer::seek(sim::Time target) {
    ++stats_.seeks;
    if (target >= position_ && trace_.checkpoint_index().empty()) {
        // Nothing indexed: fast-forward is the only option.
        play_until(target, 0.0);
        return position_;
    }

    // Newest checkpoint per owner at or before the target.
    std::map<std::string, CheckpointRecord> chosen;
    std::vector<std::size_t> scanned;
    for (const CheckpointRef& ref : trace_.checkpoint_index()) {
        if (ref.t_ns > target.nanos()) continue;
        if (std::find(scanned.begin(), scanned.end(), ref.chunk) != scanned.end()) continue;
        scanned.push_back(ref.chunk);
        trace_.each_record(ref.chunk, [&](const Record& r) {
            const auto* c = std::get_if<CheckpointRecord>(&r);
            if (c == nullptr || c->t_ns > target.nanos()) return;
            const auto it = chosen.find(c->owner);
            if (it == chosen.end() || it->second.t_ns < c->t_ns) chosen[c->owner] = *c;
        });
    }

    // Fresh client state, keyframed from the checkpoints.
    remotes_.clear();
    pending_.reset();
    std::vector<const CheckpointRecord*> ordered;
    ordered.reserve(chosen.size());
    for (const auto& [owner, cp] : chosen) ordered.push_back(&cp);
    std::sort(ordered.begin(), ordered.end(),
              [](const CheckpointRecord* a, const CheckpointRecord* b) {
                  return a->t_ns < b->t_ns;
              });
    for (const CheckpointRecord* cp : ordered) apply_checkpoint(*cp);

    // Resume the scan early enough to cover every delta newer than the
    // oldest restored reference (references may predate their checkpoint by
    // up to a keyframe interval). With no checkpoints this degrades to a
    // scan from the start of the trace.
    std::int64_t min_captured = 0;
    bool have_ref = false;
    for (const auto& [p, rm] : remotes_) {
        if (rm.last_captured_ns < 0) continue;
        min_captured = have_ref ? std::min(min_captured, rm.last_captured_ns)
                                : rm.last_captured_ns;
        have_ref = true;
    }
    std::size_t start_chunk = 0;
    if (have_ref) {
        for (std::size_t i = 0; i < trace_.chunks().size(); ++i) {
            if (trace_.chunks()[i].first_t_ns <= min_captured) start_chunk = i;
        }
    }
    cursor_ = trace_.cursor_at(start_chunk);
    position_ = sim::Time::zero();
    play_until(target, 0.0);
    return position_;
}

std::vector<ParticipantId> Replayer::participants() const {
    std::vector<ParticipantId> out;
    out.reserve(remotes_.size());
    for (const auto& [p, rm] : remotes_) out.push_back(p);
    return out;
}

std::optional<avatar::AvatarState> Replayer::latest(ParticipantId p) const {
    const auto it = remotes_.find(p);
    if (it == remotes_.end()) return std::nullopt;
    return it->second.replica->latest();
}

}  // namespace mvc::replay
