// Tests for the record/replay subsystem: trace codec round-trips, writer
// chunking and the checkpoint seek index, corruption detection (truncation
// and single-bit flips anywhere in the file), salvage truncation, recorder
// error stickiness, the divergence checker, checkpoint-indexed seek, and the
// end-to-end determinism contract (record -> rerun hash-identical, sharded
// traces byte-identical for any worker-thread count).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/classroom.hpp"
#include "core/regional_deployment.hpp"
#include "replay/divergence.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "replay/trace.hpp"
#include "sim/rng.hpp"

#include "avatar/codec.hpp"
#include "core/wire_codecs.hpp"
#include "net/real_udp.hpp"
#include "replay/rerun.hpp"
#include "sync/wire.hpp"

namespace mvc::replay {
namespace {

// Mirrors the writer's fixed chunk header layout (magic + payload_len +
// records + first_t + flags + crc); used to compute cut boundaries.
constexpr std::size_t kChunkHeaderBytes = 4 + 4 + 4 + 8 + 1 + 4;

std::vector<std::uint8_t> write_records(const std::vector<Record>& records,
                                        std::size_t chunk_bytes = 64 * 1024,
                                        std::uint64_t seed = 11,
                                        const std::string& stamp = "test stamp") {
    MemorySink sink;
    TraceWriter writer{sink, seed, stamp, 123, TraceWriterOptions{chunk_bytes}};
    std::vector<std::uint8_t> scratch;
    for (const Record& r : records) {
        scratch.clear();
        encode_record(scratch, r);
        std::int64_t t = 0;
        if (const auto* w = std::get_if<WireRecord>(&r)) t = w->t_ns;
        if (const auto* h = std::get_if<HashRecord>(&r)) t = h->t_ns;
        if (const auto* c = std::get_if<CheckpointRecord>(&r)) t = c->t_ns;
        writer.append(scratch, 1, t, std::holds_alternative<CheckpointRecord>(r));
    }
    writer.finish();
    return sink.take();
}

// ---------------------------------------------------------------- codec

TEST(TraceCodecTest, RoundTripsEveryRecordKind) {
    WireRecord wire;
    wire.t_ns = 5'000'000;
    wire.shard = 2;
    wire.flow = (2u << 16) | 1u;
    wire.src = 3;
    wire.dst = 9;
    wire.size_bytes = 512;
    wire.priority = 1;
    AvatarUpdate up;
    up.participant = 42;
    up.room = 1;
    up.keyframe = true;
    up.captured_ns = 4'900'000;
    up.bytes = {0xDE, 0xAD, 0xBE, 0xEF};
    wire.avatars.push_back(up);
    up.keyframe = false;
    up.captured_ns = 4'950'000;
    up.bytes = {0x01};
    wire.avatars.push_back(up);

    const std::vector<Record> in{
        FlowDef{7, "avatar/keyframe"},
        NodeDef{2, 5, "edge-cwb"},
        SubjectDef{3, "shard/2"},
        wire,
        HashRecord{6'000'000, 60, 3, 0xABCDEF0123456789ull},
        CheckpointRecord{7'000'000, "edge-cwb", {1, 2, 3, 4, 5}},
    };
    const std::vector<std::uint8_t> bytes = write_records(in);
    const Trace trace = Trace::parse(bytes);
    EXPECT_EQ(trace.seed(), 11u);
    EXPECT_EQ(trace.stamp(), "test stamp");
    EXPECT_EQ(trace.started_ns(), 123);
    EXPECT_EQ(trace.record_count(), in.size());
    EXPECT_EQ(trace.last_t_ns(), 7'000'000);

    std::vector<Record> out;
    Trace::Cursor c = trace.cursor();
    Record rec;
    while (c.next(rec)) out.push_back(rec);
    ASSERT_EQ(out.size(), in.size());

    const auto& f = std::get<FlowDef>(out[0]);
    EXPECT_EQ(f.id, 7u);
    EXPECT_EQ(f.name, "avatar/keyframe");
    const auto& n = std::get<NodeDef>(out[1]);
    EXPECT_EQ(n.shard, 2u);
    EXPECT_EQ(n.node, 5u);
    EXPECT_EQ(n.name, "edge-cwb");
    const auto& s = std::get<SubjectDef>(out[2]);
    EXPECT_EQ(s.id, 3u);
    EXPECT_EQ(s.name, "shard/2");
    const auto& w = std::get<WireRecord>(out[3]);
    EXPECT_EQ(w.t_ns, wire.t_ns);
    EXPECT_EQ(w.shard, wire.shard);
    EXPECT_EQ(w.flow, wire.flow);
    EXPECT_EQ(w.src, wire.src);
    EXPECT_EQ(w.dst, wire.dst);
    EXPECT_EQ(w.size_bytes, wire.size_bytes);
    EXPECT_EQ(w.priority, wire.priority);
    ASSERT_EQ(w.avatars.size(), 2u);
    EXPECT_EQ(w.avatars[0].participant, 42u);
    EXPECT_TRUE(w.avatars[0].keyframe);
    EXPECT_EQ(w.avatars[0].captured_ns, 4'900'000);
    EXPECT_EQ(w.avatars[0].bytes, (std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}));
    EXPECT_FALSE(w.avatars[1].keyframe);
    const auto& h = std::get<HashRecord>(out[4]);
    EXPECT_EQ(h.t_ns, 6'000'000);
    EXPECT_EQ(h.epoch, 60u);
    EXPECT_EQ(h.subject, 3u);
    EXPECT_EQ(h.hash, 0xABCDEF0123456789ull);
    const auto& cp = std::get<CheckpointRecord>(out[5]);
    EXPECT_EQ(cp.t_ns, 7'000'000);
    EXPECT_EQ(cp.owner, "edge-cwb");
    EXPECT_EQ(cp.bytes, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));

    // Name tables were collected during the scan.
    EXPECT_EQ(trace.flow_name(7), "avatar/keyframe");
    EXPECT_EQ(trace.subject_name(3), "shard/2");
    EXPECT_EQ(trace.node_name(2, 5), "edge-cwb");
    EXPECT_EQ(trace.flow_name(9999), "?");
}

TEST(TraceCodecTest, SmallChunksSplitAndCheckpointIndexPointsAtFlaggedChunks) {
    std::vector<Record> records;
    for (int i = 0; i < 40; ++i) {
        WireRecord w;
        w.t_ns = i * 1'000'000;
        w.flow = 1;
        w.src = 1;
        w.dst = 2;
        w.size_bytes = 100;
        records.push_back(w);
        if (i == 10 || i == 30)
            records.push_back(CheckpointRecord{w.t_ns, "cwb", {9, 9, 9}});
    }
    const std::vector<std::uint8_t> bytes = write_records(records, /*chunk_bytes=*/128);
    const Trace trace = Trace::parse(bytes);
    EXPECT_GT(trace.chunks().size(), 2u);
    ASSERT_EQ(trace.checkpoint_index().size(), 2u);
    EXPECT_EQ(trace.checkpoint_index()[0].t_ns, 10'000'000);
    EXPECT_EQ(trace.checkpoint_index()[1].t_ns, 30'000'000);
    for (const CheckpointRef& ref : trace.checkpoint_index()) {
        ASSERT_LT(ref.chunk, trace.chunks().size());
        EXPECT_NE(trace.chunks()[ref.chunk].flags & kChunkHasCheckpoint, 0);
        // The flagged chunk really contains the checkpoint record.
        bool found = false;
        trace.each_record(ref.chunk, [&](const Record& r) {
            if (const auto* c = std::get_if<CheckpointRecord>(&r))
                found = found || c->t_ns == ref.t_ns;
        });
        EXPECT_TRUE(found);
    }
}

// ----------------------------------------------------------- corruption

std::vector<std::uint8_t> small_trace() {
    std::vector<Record> records;
    records.push_back(FlowDef{1, "flow"});
    for (int i = 0; i < 24; ++i) {
        WireRecord w;
        w.t_ns = i * 500'000;
        w.flow = 1;
        w.src = 1;
        w.dst = 2;
        w.size_bytes = 64;
        records.push_back(w);
    }
    records.push_back(CheckpointRecord{6'000'000, "cwb", {1, 2, 3}});
    records.push_back(HashRecord{12'000'000, 12, 1, 77});
    return write_records(records, /*chunk_bytes=*/96);
}

TEST(TraceCorruptionTest, EveryTruncationDetectedOrLandsOnAChunkBoundary) {
    const std::vector<std::uint8_t> bytes = small_trace();
    const Trace trace = Trace::parse(bytes);
    ASSERT_GT(trace.chunks().size(), 2u);

    // Cuts at the end of the header or of a whole chunk are legitimately
    // indistinguishable from a shorter trace; everything else must fail.
    std::set<std::size_t> boundaries;
    boundaries.insert(trace.chunks()[0].payload_offset - kChunkHeaderBytes);
    for (const ChunkInfo& c : trace.chunks())
        boundaries.insert(c.payload_offset + c.payload_len);

    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const TraceCheck check =
            Trace::verify(std::span<const std::uint8_t>{bytes.data(), cut});
        if (boundaries.contains(cut)) {
            EXPECT_TRUE(check.ok) << "boundary cut at " << cut << ": " << check.error;
        } else {
            EXPECT_FALSE(check.ok) << "undetected truncation at " << cut;
        }
        // Salvage contract: the reported valid prefix always parses clean.
        EXPECT_LE(check.valid_bytes, cut);
        if (check.valid_bytes > 0) {
            std::vector<std::uint8_t> prefix(bytes.begin(),
                                             bytes.begin() + check.valid_bytes);
            EXPECT_NO_THROW((void)Trace::parse(std::move(prefix)))
                << "salvage prefix failed at cut " << cut;
        }
    }
}

TEST(TraceCorruptionTest, EverySingleBitFlipDetected) {
    const std::vector<std::uint8_t> bytes = small_trace();
    ASSERT_TRUE(Trace::verify(bytes).ok);

    // Exhaustive: one flipped bit per byte position, anywhere in the file —
    // header, chunk headers, CRC fields, payloads.
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::vector<std::uint8_t> mutated = bytes;
        mutated[i] ^= 0x40;
        EXPECT_FALSE(Trace::verify(mutated).ok) << "undetected flip at byte " << i;
    }
    // And seeded random flips of arbitrary bits, recovery_test-style.
    sim::Rng rng{2024};
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> mutated = bytes;
        mutated[rng.index(mutated.size())] ^= static_cast<std::uint8_t>(
            1u << rng.index(8));
        EXPECT_FALSE(Trace::verify(mutated).ok) << "undetected flip, trial " << trial;
    }
}

// A trace holding one hand-encoded record in a chunk whose CRC is valid:
// only the record decoder stands between these bytes and the allocator.
std::vector<std::uint8_t> trace_with_record(const std::vector<std::uint8_t>& record,
                                            bool checkpoint) {
    MemorySink sink;
    TraceWriter writer{sink, 1, "hostile", 0};
    writer.append(record, 1, 0, checkpoint);
    writer.finish();
    return sink.take();
}

TEST(TraceCorruptionTest, WireRecordClaimingHugeAvatarCountIsAnError) {
    // Wire record: kind, t, shard, flow, src, dst, size, priority, then the
    // has-avatars flag and an avatar count of 2^62 (varint) with no avatars.
    const std::vector<std::uint8_t> record{
        static_cast<std::uint8_t>(RecordKind::Wire), 0, 0, 0, 0, 0, 0, 0, 0x01,
        0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40};
    const std::vector<std::uint8_t> bytes = trace_with_record(record, false);
    TraceCheck check;
    EXPECT_NO_THROW(check = Trace::verify(bytes));
    EXPECT_FALSE(check.ok);
    EXPECT_FALSE(check.error.empty());
    EXPECT_THROW((void)Trace::parse(bytes), TraceError);
}

TEST(TraceCorruptionTest, CheckpointLengthThatWrapsTheCursorIsAnError) {
    // Checkpoint record: kind, t = 0, empty owner, then a byte length of
    // 2^64 - 13 (varint): read at payload offset 13, `pos + n` wraps to 0.
    const std::vector<std::uint8_t> record{
        static_cast<std::uint8_t>(RecordKind::Checkpoint), 0, 0,
        0xF3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01};
    const std::vector<std::uint8_t> bytes = trace_with_record(record, true);
    TraceCheck check;
    EXPECT_NO_THROW(check = Trace::verify(bytes));
    EXPECT_FALSE(check.ok);
    EXPECT_FALSE(check.error.empty());
    EXPECT_THROW((void)Trace::parse(bytes), TraceError);
}

TEST(TraceCorruptionTest, TruncateTraceKeepsReplayablePrefix) {
    const std::vector<std::uint8_t> bytes = small_trace();
    const Trace full = Trace::parse(bytes);
    const std::vector<std::uint8_t> cut = truncate_trace(full, 6'000'000);
    const Trace prefix = Trace::parse(cut);
    EXPECT_EQ(prefix.seed(), full.seed());
    EXPECT_EQ(prefix.stamp(), full.stamp());
    EXPECT_LE(prefix.last_t_ns(), 6'000'000);
    EXPECT_LT(prefix.record_count(), full.record_count());
    // Definition records survive (they carry no timestamp).
    EXPECT_EQ(prefix.flow_name(1), "flow");
    // The kept checkpoint is still indexed.
    ASSERT_EQ(prefix.checkpoint_index().size(), 1u);
    EXPECT_EQ(prefix.checkpoint_index()[0].t_ns, 6'000'000);
}

// ------------------------------------------------------------- recorder

/// Sink that starts failing after a byte budget — models a full disk.
class FailingSink final : public TraceSink {
public:
    explicit FailingSink(std::size_t budget) : budget_(budget) {}
    void write(const void* /*data*/, std::size_t n) override {
        if (written_ + n > budget_) throw TraceError("disk full");
        written_ += n;
    }

private:
    std::size_t budget_;
    std::size_t written_{0};
};

TEST(RecorderTest, SinkFailureIsStickyAndNeverPropagates) {
    FailingSink sink{512};
    RecorderOptions opts;
    opts.chunk_bytes = 64;  // force frequent chunk emission
    Recorder rec{sink, 1, "stamp", 0, opts};
    const std::uint32_t subject = rec.subject("sim");
    for (int i = 0; i < 200; ++i)
        rec.record_hash(i, subject, 42, sim::Time::ms(i));
    EXPECT_FALSE(rec.error().empty());
    const std::uint64_t hashes_at_failure = rec.hashes();
    // Disabled: further records are dropped, no throw.
    rec.record_hash(999, subject, 42, sim::Time::seconds(1));
    EXPECT_EQ(rec.hashes(), hashes_at_failure);
    EXPECT_NO_THROW(rec.finish());
}

// ----------------------------------------------------------- divergence

TEST(DivergenceTest, LocatesFirstDifferingEpochAndSubject) {
    const auto make = [](std::uint64_t epoch3_hash) {
        std::vector<Record> records;
        records.push_back(SubjectDef{1, "sim"});
        records.push_back(SubjectDef{2, "edge/cwb"});
        for (std::uint64_t e = 1; e <= 5; ++e) {
            records.push_back(HashRecord{static_cast<std::int64_t>(e) * 1'000'000, e, 1,
                                         e == 3 ? epoch3_hash : 100 + e});
            records.push_back(
                HashRecord{static_cast<std::int64_t>(e) * 1'000'000, e, 2, 200 + e});
        }
        return Trace::parse(write_records(records));
    };
    const Trace a = make(103);
    const Trace b = make(104);

    const Divergence same = diff_state_hashes(a, make(103));
    EXPECT_FALSE(same.diverged);
    EXPECT_EQ(same.compared, 10u);

    const Divergence diff = diff_state_hashes(a, b);
    ASSERT_TRUE(diff.diverged);
    EXPECT_EQ(diff.epoch, 3u);
    EXPECT_EQ(diff.subject, "sim");
    EXPECT_EQ(diff.compared, 4u);  // epochs 1-2 on both subjects matched
    EXPECT_EQ(diff.recorded_hash, 103u);
    EXPECT_EQ(diff.rerun_hash, 104u);
}

TEST(DivergenceTest, SeedMismatchReportedStructurallyNotAsEpochZero) {
    std::vector<Record> records{SubjectDef{1, "sim"}, HashRecord{0, 1, 1, 5}};
    const Trace a = Trace::parse(write_records(records, 64 * 1024, /*seed=*/1));
    const Trace b = Trace::parse(write_records(records, 64 * 1024, /*seed=*/2));
    const Divergence d = diff_state_hashes(a, b);
    EXPECT_TRUE(d.diverged);
    EXPECT_NE(d.detail.find("seed"), std::string::npos);
}

// ------------------------------------------------------------ end to end

constexpr std::uint64_t kSeed = 90125;

std::vector<std::uint8_t> record_lecture(std::uint64_t seed, double sim_seconds) {
    core::ClassroomConfig config;
    config.seed = seed;
    config.course = "replay-test lecture";
    config.recovery.enabled = true;
    config.recovery.checkpoint_interval = sim::Time::seconds(1);

    core::MetaverseClassroom classroom{config};
    classroom.add_instructor(0);
    classroom.add_physical_student(0);
    classroom.add_physical_student(0);
    classroom.add_physical_student(1);
    classroom.add_remote_student(net::Region::Seoul);

    MemorySink sink;
    Recorder rec{sink, seed, "replay-test lecture", 0, RecorderOptions{}};
    classroom.enable_recording(rec, sim::Time::ms(100));
    classroom.start();
    classroom.run_for(sim::Time::seconds(sim_seconds));
    classroom.stop();
    rec.finish();
    EXPECT_EQ(rec.error(), "");
    EXPECT_GT(rec.wire_records(), 0u);
    EXPECT_GT(rec.hashes(), 0u);
    EXPECT_GT(rec.checkpoints(), 0u);
    return sink.take();
}

TEST(RecordReplayE2ETest, RerunOfSameSeedIsHashIdenticalAndByteIdentical) {
    const std::vector<std::uint8_t> first = record_lecture(kSeed, 4.0);
    const std::vector<std::uint8_t> second = record_lecture(kSeed, 4.0);
    const Trace a = Trace::parse(first);
    const Trace b = Trace::parse(second);
    const Divergence d = diff_state_hashes(a, b);
    EXPECT_FALSE(d.diverged) << d.detail;
    EXPECT_GT(d.compared, 0u);
    EXPECT_EQ(first, second);
}

TEST(RecordReplayE2ETest, DifferentSeedsDiverge) {
    const Trace a = Trace::parse(record_lecture(kSeed, 2.0));
    const Trace b = Trace::parse(record_lecture(kSeed + 1, 2.0));
    EXPECT_TRUE(diff_state_hashes(a, b).diverged);
}

TEST(RecordReplayE2ETest, PlaybackReconstructsEveryParticipant) {
    const Trace trace = Trace::parse(record_lecture(kSeed, 4.0));
    Replayer player{trace};
    player.play_all();
    EXPECT_EQ(player.position(), player.end());
    // Instructor + 3 physical + 1 remote all published avatar state.
    EXPECT_EQ(player.participants().size(), 5u);
    EXPECT_GT(player.stats().avatar_updates, 0u);
    EXPECT_GT(player.stats().keyframes, 0u);
    for (const ParticipantId p : player.participants())
        EXPECT_TRUE(player.latest(p).has_value());
}

TEST(RecordReplayE2ETest, SeekConvergesToStraightPlayState) {
    const Trace trace = Trace::parse(record_lecture(kSeed, 4.0));
    ASSERT_FALSE(trace.checkpoint_index().empty());

    Replayer straight{trace};
    straight.play_all();

    Replayer seeker{trace};
    seeker.seek(sim::Time::seconds(2));
    EXPECT_EQ(seeker.stats().seeks, 1u);
    EXPECT_GT(seeker.stats().checkpoints_applied, 0u);
    seeker.play_all();

    ASSERT_EQ(seeker.participants().size(), straight.participants().size());
    for (const ParticipantId p : straight.participants()) {
        const auto a = straight.latest(p);
        const auto b = seeker.latest(p);
        ASSERT_TRUE(a.has_value());
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(a->captured_at.nanos(), b->captured_at.nanos());
        EXPECT_DOUBLE_EQ(a->root.pose.position.x, b->root.pose.position.x);
        EXPECT_DOUBLE_EQ(a->root.pose.position.y, b->root.pose.position.y);
        EXPECT_DOUBLE_EQ(a->root.pose.position.z, b->root.pose.position.z);
    }
}

// ------------------------------------------------------ sharded e2e

/// Slim version of the E18 sharded scenario: a two-region
/// core::RegionalDeployment with six lightweight VR clients.
std::vector<std::uint8_t> record_sharded(std::size_t threads, double sim_seconds) {
    core::RegionalDeployment deployment{
        {.regions = {net::Region::Seoul, net::Region::London}, .clients = 6, .seed = kSeed}};
    core::ShardedWorld& world = deployment.world();

    MemorySink sink;
    Recorder rec{sink, kSeed, "replay-test sharded", 0, RecorderOptions{}};
    world.enable_recording(rec);
    world.run_until(sim::Time::seconds(sim_seconds), threads);
    rec.finish();
    EXPECT_EQ(rec.error(), "");
    return sink.take();
}

TEST(RecordReplayE2ETest, ShardedTraceIdenticalForAnyThreadCount) {
    const std::vector<std::uint8_t> one = record_sharded(1, 1.0);
    const std::vector<std::uint8_t> two = record_sharded(2, 1.0);
    const std::vector<std::uint8_t> four = record_sharded(4, 1.0);
    const Trace base = Trace::parse(one);
    EXPECT_GT(base.record_count(), 0u);
    for (const auto* other : {&two, &four}) {
        const Divergence d = diff_state_hashes(base, Trace::parse(*other));
        EXPECT_FALSE(d.diverged) << d.detail;
        EXPECT_EQ(one, *other);
    }
}

// ---------------------------------------------- real-backend rerun bridge

avatar::AvatarState mirror_state(std::uint32_t id, double t_ms, double x) {
    avatar::AvatarState s;
    s.participant = ParticipantId{id};
    s.captured_at = sim::Time::ms(t_ms);
    s.root.pose.position = {x, 0.0, -1.0};
    s.root.linear_velocity = {0.4, 0.0, 0.0};
    s.body.head.position = {x, 0.65, 0.0};
    s.expression.assign(avatar::kExpressionChannels, 0.5);
    s.viseme = static_cast<std::uint8_t>(id % 7);
    return s;
}

// The acceptance gate for the real transport: traffic recorded at a
// RealUdpBackend's ingress tap must replay bit-exact through a fresh
// Simulator. Divergence here means the wire format, the recorder, or the
// avatar codec loses information between wall-clock and virtual time.
TEST(RealNetRerunTest, RecordOnRealBackendReplaysBitExactInSim) {
    core::register_wire_codecs();
    net::RealUdpBackend net;
    const net::NodeId client = net.add_node("client", net::Region::HongKong);
    const net::NodeId edge = net.add_node("edge", net::Region::HongKong);
    std::size_t delivered = 0;
    net.set_handler(edge, [&](net::Packet&&) { ++delivered; });
    net::Channel tx = net.open_channel({.src = client, .dst = edge, .flow = "avatar"});

    MemorySink sink;
    Recorder rec{sink, 0xC0FFEE, "realnet roundtrip", 0};
    rec.attach(net);
    AvatarMirror live;          // installs after the recorder, chains to it
    live.install(net);

    const avatar::AvatarCodec codec;
    const std::uint32_t subject = rec.subject("mirror");
    constexpr int kEpochs = 5;
    constexpr int kParticipants = 3;
    std::uint64_t expected = 0;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
        for (std::uint32_t p = 1; p <= kParticipants; ++p) {
            const avatar::AvatarState prev =
                mirror_state(p, epoch * 50.0, epoch * 0.1 + p);
            const avatar::AvatarState next =
                mirror_state(p, epoch * 50.0 + 25.0, epoch * 0.1 + p + 0.05);
            sync::AvatarWire w;
            w.participant = ParticipantId{p};
            w.source_room = ClassroomId{1};
            w.captured_at = prev.captured_at;
            // Alternate keyframes and deltas so the replica's reference
            // state machine is exercised on both paths.
            if (epoch % 2 == 0) {
                w.keyframe = true;
                w.bytes = codec.encode_full(prev);
            } else {
                w.keyframe = false;
                w.bytes = codec.encode_delta(prev, next);
            }
            ASSERT_TRUE(tx.send(w.bytes.size() + 64, net::Payload{std::move(w)}));
            ++expected;
        }
        // Pump the loopback until this epoch's datagrams all arrived.
        for (int spin = 0; spin < 2000 && live.updates() < expected; ++spin)
            net.poll_once(sim::Time::ms(1));
        ASSERT_EQ(live.updates(), expected);
        // Drain staged wire records before the hash so file order matches
        // arrival order — the re-run schedules records in file order.
        rec.drain_all();
        rec.record_hash(static_cast<std::uint64_t>(epoch), subject, live.state_hash(),
                        net.clock().now());
    }
    rec.finish();
    ASSERT_TRUE(rec.error().empty()) << rec.error();
    EXPECT_EQ(delivered, expected);

    const Trace recorded = Trace::parse(sink.take());
    const RerunResult rerun = replay_in_sim(recorded);
    EXPECT_FALSE(rerun.divergence.diverged) << rerun.divergence.detail;
    EXPECT_EQ(rerun.wire_records, expected);
    EXPECT_EQ(rerun.avatar_updates, expected);
    EXPECT_EQ(rerun.hash_records, static_cast<std::uint64_t>(kEpochs));
}

}  // namespace
}  // namespace mvc::replay
