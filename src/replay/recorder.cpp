#include "replay/recorder.hpp"

#include <utility>

#include "common/bytes.hpp"
#include "recovery/store.hpp"
#include "sim/simulator.hpp"
#include "sync/wire.hpp"

namespace mvc::replay {

namespace {

using common::put;
using common::put_varint;
using common::put_varint_bytes;

constexpr std::uint8_t kWireHasAvatars = 0x01;

// Same record layouts as encode_record (trace.cpp), written straight from
// the live objects so the tap never builds a Record. Timestamps are
// non-negative nanoseconds stored as unsigned varints.
void encode_avatar_update(std::vector<std::uint8_t>& buf, const sync::AvatarWire& w) {
    put_varint(buf, w.participant.value());
    put_varint(buf, w.source_room.value());
    put<std::uint8_t>(buf, w.keyframe ? 1 : 0);
    put_varint(buf, static_cast<std::uint64_t>(w.captured_at.nanos()));
    put_varint_bytes(buf, w.bytes);
}

}  // namespace

Recorder::Recorder(TraceSink& sink, std::uint64_t seed, std::string_view stamp,
                   std::int64_t started_ns, RecorderOptions options)
    : options_(options),
      writer_(sink, seed, stamp, started_ns, TraceWriterOptions{options.chunk_bytes}) {
    scratch_.reserve(4 * 1024);
}

Recorder::~Recorder() { finish(); }

Recorder::ShardState& Recorder::shard_state(std::uint32_t shard) {
    while (shards_.size() <= shard) {
        auto s = std::make_unique<ShardState>();
        s->buf.reserve(options_.stage_reserve_bytes);
        shards_.push_back(std::move(s));
    }
    return *shards_[shard];
}

void Recorder::attach(net::Backend& net, std::uint32_t shard) {
    ShardState& s = shard_state(shard);
    s.net = &net;
    s.tap = std::make_unique<ShardTap>(*this, shard);
    net.set_tap(s.tap.get());
    // Name table for dump tooling: nodes present at attach time. (Nodes
    // added later still record — they just dump as "?".)
    scratch_.clear();
    std::size_t defs = 0;
    for (net::NodeId id = 1; id <= net.node_count(); ++id) {
        encode_record(scratch_, NodeDef{shard, id, net.name_of(id)});
        ++defs;
    }
    if (defs == 0) return;
    try {
        writer_.append(scratch_, defs, 0, false);
    } catch (const std::exception& e) {
        fail(e.what());
    }
}

std::uint32_t Recorder::subject(std::string_view name) {
    const auto it = subjects_.find(name);
    if (it != subjects_.end()) return it->second;
    const std::uint32_t id = next_subject_id_++;
    subjects_.emplace(std::string{name}, id);
    scratch_.clear();
    encode_record(scratch_, SubjectDef{id, std::string{name}});
    try {
        writer_.append(scratch_, 1, 0, false);
    } catch (const std::exception& e) {
        fail(e.what());
    }
    return id;
}

std::uint32_t Recorder::intern_flow(std::uint32_t shard, ShardState& s,
                                    const std::string& name) {
    const auto it = s.flow_ids.find(name);
    if (it != s.flow_ids.end()) return it->second;
    // First sighting on this shard: allocate a shard-scoped id and stage
    // the definition ahead of the record that references it.
    const std::uint32_t id = (shard << 16) | s.next_flow++;
    s.flow_ids.emplace(name, id);
    put(s.buf, static_cast<std::uint8_t>(RecordKind::FlowDef));
    put_varint(s.buf, id);
    put_varint_bytes(s.buf, name);
    ++s.records;
    return id;
}

void Recorder::tap_packet(std::uint32_t shard, const net::Packet& p,
                          net::Priority priority) {
    if (!ok_ || finished_) return;
    ShardState& s = *shards_[shard];
    const std::int64_t t = p.sent_at.nanos();
    if (s.records == 0) s.first_t = t;
    const std::uint32_t flow_id = intern_flow(shard, s, p.flow);

    std::vector<std::uint8_t>& buf = s.buf;
    put(buf, static_cast<std::uint8_t>(RecordKind::Wire));
    put_varint(buf, static_cast<std::uint64_t>(t));
    put_varint(buf, shard);
    put_varint(buf, flow_id);
    put_varint(buf, p.src);
    put_varint(buf, p.dst);
    put_varint(buf, p.size_bytes);
    put(buf, static_cast<std::uint8_t>(priority));

    const sync::AvatarWire* one = nullptr;
    const sync::AvatarBatchWire* batch = nullptr;
    if (options_.capture_payloads) {
        if (p.payload.holds<sync::AvatarWire>()) {
            one = &p.payload.get<sync::AvatarWire>();
        } else if (p.payload.holds<sync::AvatarBatchWire>()) {
            batch = &p.payload.get<sync::AvatarBatchWire>();
        }
    }
    if (one != nullptr) {
        put(buf, kWireHasAvatars);
        put_varint(buf, 1);
        encode_avatar_update(buf, *one);
        ++s.avatar_updates;
    } else if (batch != nullptr) {
        put(buf, kWireHasAvatars);
        put_varint(buf, batch->updates.size());
        for (const sync::AvatarWire& u : batch->updates) encode_avatar_update(buf, u);
        s.avatar_updates += batch->updates.size();
    } else {
        put<std::uint8_t>(buf, 0);
    }
    ++s.records;
    ++s.wire_records;
}

void Recorder::record_hash(std::uint64_t epoch, std::uint32_t subject, std::uint64_t hash,
                           sim::Time at) {
    if (!ok_ || finished_) return;
    scratch_.clear();
    encode_record(scratch_, HashRecord{at.nanos(), epoch, subject, hash});
    try {
        writer_.append(scratch_, 1, at.nanos(), false);
        ++hashes_;
    } catch (const std::exception& e) {
        fail(e.what());
    }
}

void Recorder::record_checkpoint(const std::string& owner,
                                 std::span<const std::uint8_t> bytes, sim::Time at) {
    if (!ok_ || finished_) return;
    // Stage into shard 0 so the keyframe lands between the wire records it
    // sits between in time (checkpoints come from the single-sim classroom).
    ShardState& s = shard_state(0);
    if (s.records == 0) s.first_t = at.nanos();
    put(s.buf, static_cast<std::uint8_t>(RecordKind::Checkpoint));
    put_varint(s.buf, static_cast<std::uint64_t>(at.nanos()));
    put_varint_bytes(s.buf, owner);
    put_varint_bytes(s.buf, bytes);
    ++s.records;
    s.has_checkpoint = true;
    ++checkpoints_;
}

void Recorder::observe_store(recovery::CheckpointStore& store, const sim::Simulator& sim) {
    observed_stores_.push_back(&store);
    store.set_observer(
        [this, &sim](const std::string& owner, const std::vector<std::uint8_t>& bytes) {
            record_checkpoint(owner, bytes, sim.now());
        });
}

void Recorder::drain(std::uint32_t shard) {
    if (shard >= shards_.size()) return;
    ShardState& s = *shards_[shard];
    if (s.records == 0) return;
    if (ok_ && !finished_) {
        try {
            writer_.append(s.buf, s.records, s.first_t, s.has_checkpoint);
        } catch (const std::exception& e) {
            fail(e.what());
        }
    }
    s.buf.clear();  // capacity retained
    s.records = 0;
    s.first_t = 0;
    s.has_checkpoint = false;
}

void Recorder::drain_all() {
    for (std::uint32_t i = 0; i < shards_.size(); ++i) drain(i);
}

void Recorder::finish() {
    if (finished_) return;
    drain_all();
    for (auto& s : shards_) {
        if (s->net != nullptr && s->net->tap() == s->tap.get()) s->net->set_tap(nullptr);
    }
    for (recovery::CheckpointStore* store : observed_stores_) store->set_observer(nullptr);
    observed_stores_.clear();
    if (ok_) {
        try {
            writer_.finish();
        } catch (const std::exception& e) {
            fail(e.what());
        }
    }
    finished_ = true;
}

void Recorder::fail(const char* what) {
    if (!ok_) return;
    ok_ = false;
    error_ = what;
}

std::uint64_t Recorder::wire_records() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->wire_records;
    return total;
}

std::uint64_t Recorder::avatar_updates() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->avatar_updates;
    return total;
}

}  // namespace mvc::replay
