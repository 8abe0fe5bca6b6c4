#include "replay/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/bytes.hpp"

namespace mvc::replay {

namespace {

using common::put;
using common::put_varint;
using common::put_varint_bytes;
using common::Reader;

// Wire flag bits (WireRecord encoding).
constexpr std::uint8_t kWireHasAvatars = 0x01;

// Fixed chunk header size: magic + payload_len + records + first_t + flags + crc.
constexpr std::size_t kChunkHeaderBytes = 4 + 4 + 4 + 8 + 1 + 4;

// Smallest AvatarUpdate encoding (four one-byte varints and the keyframe
// flag), for vetting a Wire record's avatar count.
constexpr std::size_t kMinAvatarUpdateBytes = 5;

// Timestamps are simulated-time nanoseconds, always >= 0, encoded as plain
// unsigned varints (no zigzag).
void put_time(std::vector<std::uint8_t>& out, std::int64_t t_ns) {
    put_varint(out, static_cast<std::uint64_t>(t_ns));
}

std::int64_t get_time(Reader& r) { return static_cast<std::int64_t>(r.varint()); }

std::string get_name(Reader& r) { return r.str(r.varint()); }

void encode_avatar(std::vector<std::uint8_t>& out, const AvatarUpdate& u) {
    put_varint(out, u.participant);
    put_varint(out, u.room);
    put<std::uint8_t>(out, u.keyframe ? 1 : 0);
    put_time(out, u.captured_ns);
    put_varint_bytes(out, u.bytes);
}

AvatarUpdate decode_avatar(Reader& r) {
    AvatarUpdate u;
    u.participant = r.varint<std::uint32_t>();
    u.room = r.varint<std::uint32_t>();
    u.keyframe = r.get<std::uint8_t>() != 0;
    u.captured_ns = get_time(r);
    const auto b = r.varint_bytes();
    u.bytes.assign(b.begin(), b.end());
    return u;
}

/// Decode one record; malformed input latches `r` failed (the returned
/// record is then meaningless).
Record decode_record(Reader& r) {
    const auto kind = static_cast<RecordKind>(r.get<std::uint8_t>());
    switch (kind) {
        case RecordKind::FlowDef: {
            FlowDef d;
            d.id = r.varint<std::uint32_t>();
            d.name = get_name(r);
            return d;
        }
        case RecordKind::NodeDef: {
            NodeDef d;
            d.shard = r.varint<std::uint32_t>();
            d.node = r.varint<std::uint32_t>();
            d.name = get_name(r);
            return d;
        }
        case RecordKind::SubjectDef: {
            SubjectDef d;
            d.id = r.varint<std::uint32_t>();
            d.name = get_name(r);
            return d;
        }
        case RecordKind::Wire: {
            WireRecord w;
            w.t_ns = get_time(r);
            w.shard = r.varint<std::uint32_t>();
            w.flow = r.varint<std::uint32_t>();
            w.src = r.varint<std::uint32_t>();
            w.dst = r.varint<std::uint32_t>();
            w.size_bytes = r.varint();
            w.priority = r.get<std::uint8_t>();
            const auto flags = r.get<std::uint8_t>();
            if ((flags & kWireHasAvatars) != 0) {
                w.avatars.resize(r.count(r.varint(), kMinAvatarUpdateBytes));
                for (AvatarUpdate& u : w.avatars) u = decode_avatar(r);
            }
            return w;
        }
        case RecordKind::StateHash: {
            HashRecord h;
            h.t_ns = get_time(r);
            h.epoch = r.varint();
            h.subject = r.varint<std::uint32_t>();
            h.hash = r.get<std::uint64_t>();
            return h;
        }
        case RecordKind::Checkpoint: {
            CheckpointRecord c;
            c.t_ns = get_time(r);
            c.owner = get_name(r);
            const auto b = r.varint_bytes();
            c.bytes.assign(b.begin(), b.end());
            return c;
        }
    }
    r.fail();  // unknown record kind
    return {};
}

/// decode_record over a payload parse() already verified.
Record decode_verified(Reader& r) {
    Record rec = decode_record(r);
    if (!r.ok()) throw TraceError("trace: corrupt record in a verified chunk");
    return rec;
}

/// Timestamp of a record; nullopt for definition records.
std::optional<std::int64_t> record_time(const Record& r) {
    if (const auto* w = std::get_if<WireRecord>(&r)) return w->t_ns;
    if (const auto* h = std::get_if<HashRecord>(&r)) return h->t_ns;
    if (const auto* c = std::get_if<CheckpointRecord>(&r)) return c->t_ns;
    return std::nullopt;
}

/// Shared tolerant scan behind parse() and verify(). Fills `out` (when
/// non-null) with everything a Trace needs; never throws.
struct Scan {
    TraceCheck check;
    std::uint16_t version{0};
    std::uint64_t seed{0};
    std::string stamp;
    std::int64_t started_ns{0};
    std::vector<ChunkInfo> chunks;
    std::vector<CheckpointRef> checkpoints;
    std::map<std::uint32_t, std::string> flow_names;
    std::map<std::uint32_t, std::string> subject_names;
    std::map<std::uint64_t, std::string> node_names;
};

Scan scan_trace(std::span<const std::uint8_t> bytes) {
    Scan s;
    Reader r{bytes};
    const auto magic = r.get<std::uint32_t>();
    if (r.ok() && magic != kTraceMagic) {
        s.check.error = "bad trace magic";
        return s;
    }
    s.version = r.get<std::uint16_t>();
    if (r.ok() && s.version != kTraceVersion) {
        s.check.error = "unsupported trace version " + std::to_string(s.version);
        return s;
    }
    s.seed = r.get<std::uint64_t>();
    s.started_ns = r.get<std::int64_t>();
    s.stamp = get_name(r);
    const std::size_t crc_at = r.pos();
    const auto header_crc = r.get<std::uint32_t>();
    if (!r.ok()) {
        s.check.error = "truncated trace header";
        return s;
    }
    if (header_crc != common::crc32(bytes.first(crc_at))) {
        s.check.error = "trace header CRC mismatch";
        return s;
    }
    s.check.valid_bytes = r.pos();

    while (!r.done()) {
        const std::string at = " at offset " + std::to_string(s.check.valid_bytes);
        const std::size_t chunk_start = r.pos();
        if (r.remaining() < kChunkHeaderBytes) {
            s.check.error = "truncated chunk" + at;
            return s;
        }
        if (r.get<std::uint32_t>() != kChunkMagic) {
            s.check.error = "bad chunk magic" + at;
            return s;
        }
        ChunkInfo info;
        info.payload_len = r.get<std::uint32_t>();
        info.records = r.get<std::uint32_t>();
        info.first_t_ns = r.get<std::int64_t>();
        info.flags = r.get<std::uint8_t>();
        const auto crc = r.get<std::uint32_t>();
        info.payload_offset = r.pos();
        const std::span<const std::uint8_t> payload = r.take(info.payload_len);
        if (!r.ok()) {
            s.check.error = "truncated chunk" + at;
            return s;
        }
        // CRC covers the header fields (through flags) and the payload, so a
        // flipped first_t/flags byte is caught, not just payload damage.
        const std::uint32_t want = common::crc32(
            payload, common::crc32(bytes.subspan(chunk_start, kChunkHeaderBytes - 4)));
        if (want != crc) {
            s.check.error = "chunk CRC mismatch" + at;
            return s;
        }
        // Decode every record: validates the payload and builds the tables
        // and the checkpoint seek index in one pass.
        Reader pr{payload};
        std::uint32_t decoded = 0;
        while (!pr.done()) {
            Record rec = decode_record(pr);
            if (!pr.ok()) {
                s.check.error = "chunk payload decode failed: malformed record" + at;
                return s;
            }
            ++decoded;
            if (const auto t = record_time(rec))
                s.check.last_t_ns = std::max(s.check.last_t_ns, *t);
            if (auto* f = std::get_if<FlowDef>(&rec)) {
                s.flow_names[f->id] = std::move(f->name);
            } else if (auto* n = std::get_if<NodeDef>(&rec)) {
                s.node_names[(static_cast<std::uint64_t>(n->shard) << 32) | n->node] =
                    std::move(n->name);
            } else if (auto* sub = std::get_if<SubjectDef>(&rec)) {
                s.subject_names[sub->id] = std::move(sub->name);
            } else if (const auto* c = std::get_if<CheckpointRecord>(&rec)) {
                s.checkpoints.push_back(CheckpointRef{c->t_ns, s.chunks.size()});
            }
        }
        if (decoded != info.records) {
            s.check.error = "chunk record count mismatch (header says " +
                            std::to_string(info.records) + ", decoded " +
                            std::to_string(decoded) + ")";
            return s;
        }
        s.chunks.push_back(info);
        ++s.check.chunks;
        s.check.records += decoded;
        s.check.valid_bytes = r.pos();
    }
    s.check.ok = true;
    return s;
}

}  // namespace

// ------------------------------------------------------------ encode_record

void encode_record(std::vector<std::uint8_t>& out, const Record& r) {
    std::visit(
        [&out](const auto& rec) {
            using T = std::decay_t<decltype(rec)>;
            if constexpr (std::is_same_v<T, FlowDef>) {
                put(out, static_cast<std::uint8_t>(RecordKind::FlowDef));
                put_varint(out, rec.id);
                put_varint_bytes(out, rec.name);
            } else if constexpr (std::is_same_v<T, NodeDef>) {
                put(out, static_cast<std::uint8_t>(RecordKind::NodeDef));
                put_varint(out, rec.shard);
                put_varint(out, rec.node);
                put_varint_bytes(out, rec.name);
            } else if constexpr (std::is_same_v<T, SubjectDef>) {
                put(out, static_cast<std::uint8_t>(RecordKind::SubjectDef));
                put_varint(out, rec.id);
                put_varint_bytes(out, rec.name);
            } else if constexpr (std::is_same_v<T, WireRecord>) {
                put(out, static_cast<std::uint8_t>(RecordKind::Wire));
                put_time(out, rec.t_ns);
                put_varint(out, rec.shard);
                put_varint(out, rec.flow);
                put_varint(out, rec.src);
                put_varint(out, rec.dst);
                put_varint(out, rec.size_bytes);
                put<std::uint8_t>(out, rec.priority);
                put<std::uint8_t>(out, rec.avatars.empty() ? 0 : kWireHasAvatars);
                if (!rec.avatars.empty()) {
                    put_varint(out, rec.avatars.size());
                    for (const AvatarUpdate& u : rec.avatars) encode_avatar(out, u);
                }
            } else if constexpr (std::is_same_v<T, HashRecord>) {
                put(out, static_cast<std::uint8_t>(RecordKind::StateHash));
                put_time(out, rec.t_ns);
                put_varint(out, rec.epoch);
                put_varint(out, rec.subject);
                put<std::uint64_t>(out, rec.hash);
            } else if constexpr (std::is_same_v<T, CheckpointRecord>) {
                put(out, static_cast<std::uint8_t>(RecordKind::Checkpoint));
                put_time(out, rec.t_ns);
                put_varint_bytes(out, rec.owner);
                put_varint_bytes(out, rec.bytes);
            }
        },
        r);
}

// -------------------------------------------------------------------- sinks

FileSink::FileSink(const std::string& path) : file_(std::fopen(path.c_str(), "wb")) {
    if (file_ == nullptr) throw TraceError("trace: cannot open " + path + " for writing");
}

FileSink::~FileSink() {
    if (file_ != nullptr) std::fclose(file_);
}

void FileSink::write(const void* data, std::size_t n) {
    if (std::fwrite(data, 1, n, file_) != n) throw TraceError("trace: short write");
}

void FileSink::flush() {
    if (std::fflush(file_) != 0) throw TraceError("trace: flush failed");
}

void MemorySink::write(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
}

// ------------------------------------------------------------------- writer

TraceWriter::TraceWriter(TraceSink& sink, std::uint64_t seed, std::string_view stamp,
                         std::int64_t started_ns, TraceWriterOptions options)
    : sink_(sink), options_(options) {
    std::vector<std::uint8_t> header;
    put(header, kTraceMagic);
    put(header, kTraceVersion);
    put(header, seed);
    put(header, started_ns);
    put_varint_bytes(header, stamp);
    put(header, common::crc32(header));
    sink_.write(header.data(), header.size());
    bytes_written_ += header.size();
    pending_.reserve(options_.chunk_bytes + options_.chunk_bytes / 4);
    chunk_header_.reserve(kChunkHeaderBytes);
}

void TraceWriter::append(std::span<const std::uint8_t> encoded, std::size_t record_count,
                         std::int64_t first_t_ns, bool has_checkpoint) {
    if (finished_) throw TraceError("trace: append after finish");
    if (record_count == 0) return;
    if (pending_records_ == 0) pending_first_t_ = first_t_ns;
    pending_has_checkpoint_ = pending_has_checkpoint_ || has_checkpoint;
    pending_.insert(pending_.end(), encoded.begin(), encoded.end());
    pending_records_ += record_count;
    records_written_ += record_count;
    if (pending_.size() >= options_.chunk_bytes) emit_chunk();
}

void TraceWriter::emit_chunk() {
    if (pending_records_ == 0) return;
    chunk_header_.clear();
    put(chunk_header_, kChunkMagic);
    put(chunk_header_, static_cast<std::uint32_t>(pending_.size()));
    put(chunk_header_, static_cast<std::uint32_t>(pending_records_));
    put(chunk_header_, pending_first_t_);
    put<std::uint8_t>(chunk_header_, pending_has_checkpoint_ ? kChunkHasCheckpoint : 0);
    put(chunk_header_, common::crc32(pending_, common::crc32(chunk_header_)));
    sink_.write(chunk_header_.data(), chunk_header_.size());
    sink_.write(pending_.data(), pending_.size());
    bytes_written_ += chunk_header_.size() + pending_.size();
    ++chunks_written_;
    pending_.clear();  // capacity retained
    pending_records_ = 0;
    pending_first_t_ = 0;
    pending_has_checkpoint_ = false;
}

void TraceWriter::finish() {
    if (finished_) return;
    emit_chunk();
    sink_.flush();
    finished_ = true;
}

// ------------------------------------------------------------------- reader

Trace Trace::parse(std::vector<std::uint8_t> bytes) {
    Scan s = scan_trace(bytes);
    if (!s.check.ok) throw TraceError("trace: " + s.check.error);
    Trace t;
    t.bytes_ = std::move(bytes);
    t.version_ = s.version;
    t.seed_ = s.seed;
    t.stamp_ = std::move(s.stamp);
    t.started_ns_ = s.started_ns;
    t.chunks_ = std::move(s.chunks);
    t.checkpoint_index_ = std::move(s.checkpoints);
    t.record_count_ = s.check.records;
    t.last_t_ns_ = s.check.last_t_ns;
    t.flow_names_ = std::move(s.flow_names);
    t.subject_names_ = std::move(s.subject_names);
    t.node_names_ = std::move(s.node_names);
    return t;
}

Trace Trace::load(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw TraceError("trace: cannot open " + path);
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[64 * 1024];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.insert(bytes.end(), buf, buf + n);
    const bool err = std::ferror(f) != 0;
    std::fclose(f);
    if (err) throw TraceError("trace: read failed for " + path);
    return parse(std::move(bytes));
}

TraceCheck Trace::verify(std::span<const std::uint8_t> bytes) {
    return scan_trace(bytes).check;
}

const std::string& Trace::flow_name(std::uint32_t id) const {
    static const std::string kUnknown = "?";
    const auto it = flow_names_.find(id);
    return it == flow_names_.end() ? kUnknown : it->second;
}

const std::string& Trace::subject_name(std::uint32_t id) const {
    static const std::string kUnknown = "?";
    const auto it = subject_names_.find(id);
    return it == subject_names_.end() ? kUnknown : it->second;
}

const std::string& Trace::node_name(std::uint32_t shard, std::uint32_t node) const {
    static const std::string kUnknown = "?";
    const auto it = node_names_.find((static_cast<std::uint64_t>(shard) << 32) | node);
    return it == node_names_.end() ? kUnknown : it->second;
}

bool Trace::Cursor::next(Record& out) {
    while (chunk_ < trace_->chunks_.size()) {
        const ChunkInfo& info = trace_->chunks_[chunk_];
        if (pos_ >= info.payload_len) {
            ++chunk_;
            pos_ = 0;
            continue;
        }
        const std::span<const std::uint8_t> payload{
            trace_->bytes_.data() + info.payload_offset + pos_, info.payload_len - pos_};
        Reader r{payload};
        out = decode_verified(r);
        pos_ += r.pos();
        return true;
    }
    return false;
}

void Trace::each_record(std::size_t chunk,
                        const std::function<void(const Record&)>& fn) const {
    if (chunk >= chunks_.size()) return;
    const ChunkInfo& info = chunks_[chunk];
    Reader r{std::span{bytes_.data() + info.payload_offset, info.payload_len}};
    while (!r.done()) fn(decode_verified(r));
}

// ----------------------------------------------------------------- truncate

std::vector<std::uint8_t> truncate_trace(const Trace& trace, std::int64_t keep_until_ns) {
    MemorySink sink;
    TraceWriter writer{sink, trace.seed(), trace.stamp(), trace.started_ns()};
    Trace::Cursor c = trace.cursor();
    Record rec;
    std::vector<std::uint8_t> scratch;
    while (c.next(rec)) {
        const auto t = record_time(rec);
        if (t.has_value() && *t > keep_until_ns) continue;
        scratch.clear();
        encode_record(scratch, rec);
        writer.append(scratch, 1, t.value_or(0), std::holds_alternative<CheckpointRecord>(rec));
    }
    writer.finish();
    return sink.take();
}

}  // namespace mvc::replay
