// Golden-bytes tests: every byte format the system writes — the avatar
// codecs, the campus pool record, one datagram frame per registered wire
// tag, a populated recovery checkpoint, a trace written record by record,
// and a trace written by the recorder's packet tap — pinned as hex. A
// refactor of the byte-level helpers must leave every string below
// unchanged; a deliberate format change must bump the format's version.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "avatar/codec.hpp"
#include "core/avatar_pool.hpp"
#include "core/wire_codecs.hpp"
#include "fault/heartbeat.hpp"
#include "net/network.hpp"
#include "net/wire_format.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/resync.hpp"
#include "replay/recorder.hpp"
#include "replay/trace.hpp"
#include "sim/simulator.hpp"
#include "sync/wire.hpp"

namespace mvc {
namespace {

template <class B>
std::string hex(std::span<const B> bytes) {
    static const char* kDigits = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const B b : bytes) {
        const auto v = static_cast<std::uint8_t>(b);
        out.push_back(kDigits[v >> 4]);
        out.push_back(kDigits[v & 0x0F]);
    }
    return out;
}

std::string hex(const std::vector<std::uint8_t>& b) { return hex<std::uint8_t>(b); }
std::string hex(const std::vector<std::byte>& b) { return hex<std::byte>(b); }

std::vector<std::byte> unhex(const std::string& s) {
    std::vector<std::byte> out;
    for (std::size_t i = 0; i + 1 < s.size(); i += 2)
        out.push_back(static_cast<std::byte>(std::stoi(s.substr(i, 2), nullptr, 16)));
    return out;
}

avatar::AvatarState fixed_state() {
    avatar::AvatarState s;
    s.participant = ParticipantId{7};
    s.captured_at = sim::Time::us(1'234'567);
    s.root.pose.position = {1.25, 0.0, -3.5};
    s.root.pose.orientation = math::Quat{0.9, 0.1, -0.3, 0.2}.normalized();
    s.root.linear_velocity = {0.5, 0.0, -0.25};
    s.root.angular_velocity = {0.0, 1.5, 0.0};
    s.body.head.position = {1.25, 1.7, -3.5};
    s.body.head.orientation = math::Quat{0.8, 0.0, 0.6, 0.0};
    s.body.left_hand.position = {0.95, 1.1, -3.3};
    s.body.left_hand.orientation = math::Quat{0.6, -0.8, 0.0, 0.0};
    s.body.right_hand.position = {1.55, 1.05, -3.4};
    s.body.right_hand.orientation = math::Quat{0.0, 0.0, 0.0, -1.0};
    s.expression.resize(avatar::kExpressionChannels);
    for (std::size_t i = 0; i < s.expression.size(); ++i)
        s.expression[i] = static_cast<double>(i) / 15.0;
    s.viseme = 11;
    return s;
}

// ------------------------------------------------------------ avatar codec

TEST(GoldenBytesTest, AvatarCodecFullAndDelta) {
    const avatar::AvatarCodec codec;
    const avatar::AvatarState ref = fixed_state();
    avatar::AvatarState cur = ref;
    cur.captured_at = sim::Time::us(1'267'900);
    cur.root.pose.position = {1.30, 0.0, -3.45};
    cur.body.right_hand.position = {1.60, 1.15, -3.3};
    cur.expression[3] = 0.9;
    cur.expression[12] = 0.05;
    cur.viseme = 4;

    EXPECT_EQ(hex(codec.encode_full(ref)),
              "0700000087d61200000000009901000085fb00921248c8242566060000ccfc00"
              "00990900000000cc6c00000000009c6c0000ccec6646cc0c0163930000000033"
              "13324366060300000000000000112233445566778899aabbccddeeff0b");
    EXPECT_EQ(hex(codec.encode_delta(ref, cur)),
              "c101f3040000a901000095fb331399499909030000000000000810e60d04");
    // An unchanged state still costs the mask and the timestamp.
    EXPECT_EQ(hex(codec.encode_delta(ref, ref)), "0000d2040000");
}

// -------------------------------------------------------------- pool record

TEST(GoldenBytesTest, AvatarPoolRecord) {
    core::AvatarPool pool;
    (void)pool.add(EntityId{9}, {0.0, 0.0, 0.0});
    (void)pool.add(EntityId{42}, {1.5, 2.0, -0.25}, {0.5, 0.0, -1.0});
    std::vector<std::uint8_t> out;
    pool.encode_record(1, out);
    EXPECT_EQ(hex(out),
              "2a00000000000000000000c03f00000040000080be0000003f00000000000080"
              "bf");
}

// --------------------------------------------------------- datagram frames

net::Packet golden_packet(net::Payload payload) {
    net::Packet p;
    p.id = 77;
    p.src = 1;
    p.dst = 2;
    p.size_bytes = 1234;
    p.sent_at = sim::Time::ms(250);
    p.flow = "golden";
    p.payload = std::move(payload);
    return p;
}

sync::AvatarWire golden_wire(std::uint32_t who) {
    sync::AvatarWire w;
    w.participant = ParticipantId{who};
    w.source_room = ClassroomId{3};
    w.keyframe = who % 2 == 1;
    w.captured_at = sim::Time::ms(41);
    w.bytes = {0xDE, 0xAD, 0xBE, static_cast<std::uint8_t>(who)};
    w.relay_to = {4, 5};
    w.seq = 1000 + who;
    return w;
}

/// Encode `payload` into a frame, check the hex, and check the frame
/// decodes back into a payload that re-encodes to the same bytes.
void expect_frame(const net::Payload& payload, net::Priority prio, const std::string& want) {
    const auto frame = net::encode_frame(golden_packet(payload), prio);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(hex(*frame), want);
    const auto decoded = net::decode_frame(*frame);
    ASSERT_TRUE(decoded.has_value());
    const auto again = net::encode_frame(decoded->packet, decoded->priority);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(hex(*again), hex(*frame));
}

/// Payloads whose types are private to their module reach the frame codec
/// through the registered decoder of a hand-written body.
net::Payload payload_from_body(std::uint16_t tag, const std::string& body_hex) {
    const auto* decode = net::WireCodecs::instance().decoder(tag);
    EXPECT_NE(decode, nullptr);
    const std::vector<std::byte> body = unhex(body_hex);
    auto payload = (*decode)(body);
    EXPECT_TRUE(payload.has_value()) << "tag " << tag;
    return payload ? std::move(*payload) : net::Payload{};
}

// Frames are at wire version 2: varint header fields and varint payload
// fields (see net/wire_format.hpp).
TEST(GoldenBytesTest, OneFramePerRegisteredTag) {
    core::register_wire_codecs();
    using net::Payload;
    using net::Priority;

    expect_frame(Payload{}, Priority::Control,
                 "4d56444702000001024dd20980cab5ee0106676f6c64656eec09bbf7");
    expect_frame(Payload{golden_wire(9)}, Priority::Realtime,
                 "4d56444702010101024dd20980cab5ee0106676f6c64656e090301f10780f18c"
                 "2704deadbe0902040555208117");

    sync::AvatarBatchWire batch;
    batch.updates = {golden_wire(1), golden_wire(2)};
    batch.updates[1].relay_to.clear();
    batch.updates[1].bytes.clear();
    expect_frame(Payload{batch}, Priority::Realtime,
                 "4d56444702010201024dd20980cab5ee0106676f6c64656e02010301e90780f1"
                 "8c2704deadbe01020405020300ea07000000add44680");

    expect_frame(Payload{fault::HeartbeatWire{99}}, Priority::Control,
                 "4d56444702000301024dd20980cab5ee0106676f6c64656e639c4ca40c");

    // Clock request: t0_client zigzag varint (1 ms).
    expect_frame(payload_from_body(core::kTagClockRequest, "80897a"),
                 Priority::Control,
                 "4d56444702000401024dd20980cab5ee0106676f6c64656e80897a7785957b");
    // Clock reply: t0_client, t_server zigzag varints (1 ms, 100 us).
    expect_frame(payload_from_body(core::kTagClockReply, "80897a" "c09a0c"),
                 Priority::Control,
                 "4d56444702000501024dd20980cab5ee0106676f6c64656e80897ac09a0ca571"
                 "fcfa");

    expect_frame(Payload{recovery::ResyncRequest{0x0102030405060708ULL, sim::Time::ms(3)}},
                 Priority::Control,
                 "4d56444702000601024dd20980cab5ee0106676f6c64656e0807060504030201"
                 "809bee02e3b69cdf");

    recovery::ResyncSnapshot snap;
    snap.nonce = 5;
    snap.served_at = sim::Time::ms(7);
    snap.entries.push_back({ParticipantId{1}, ClassroomId{2}, sim::Time::ms(6), {9, 8, 7}});
    snap.entries.push_back({ParticipantId{3}, ClassroomId{2}, sim::Time::ms(5), {}});
    expect_frame(Payload{snap}, Priority::Control,
                 "4d56444702000701024dd20980cab5ee0106676f6c64656e0500000000000000"
                 "80bfd60602010280b6dc0503090807030280ade20400cf754f57");

    // ARQ segment: seq varint, first_sent zigzag varint (50 ms),
    // transmission varint, then the nested payload up to the end of the
    // body (tag 9 = bare u64, value 0x2a).
    expect_frame(payload_from_body(core::kTagArqData,
                                   "03"
                                   "80c2d72f"
                                   "02"
                                   "09"
                                   "2a"),
                 Priority::Bulk,
                 "4d56444702020801024dd20980cab5ee0106676f6c64656e0380c2d72f02092a"
                 "2f362db6");

    expect_frame(Payload{std::uint64_t{123456}}, Priority::Bulk,
                 "4d56444702020901024dd20980cab5ee0106676f6c64656ec0c407ad73ede6");
    expect_frame(Payload{std::string{"hello wire"}}, Priority::Bulk,
                 "4d56444702020a01024dd20980cab5ee0106676f6c64656e0a68656c6c6f2077"
                 "697265836655c1");
}

TEST(GoldenBytesTest, VersionOneFrameIsRejectedByVersion) {
    // The empty-payload frame as version 1 wrote it (fixed-width header).
    const std::vector<std::byte> v1 =
        unhex("4d5644470100000001000000020000004d00000000000000d204000000000000"
              "80b2e60e000000000600676f6c64656e00000000bdacdb16");
    net::FrameDefect defect = net::FrameDefect::None;
    EXPECT_FALSE(net::decode_frame(v1, defect).has_value());
    EXPECT_EQ(defect, net::FrameDefect::BadVersion);
}

// --------------------------------------------------------------- checkpoint

TEST(GoldenBytesTest, PopulatedCheckpoint) {
    recovery::ClassroomCheckpoint cp;
    cp.node = "edge-cwb";
    cp.sequence = 3;
    cp.taken_at_ns = sim::Time::seconds(5.0).nanos();
    cp.seats = {{0, ParticipantId{11}}, {4, ParticipantId{12}}};
    cp.reservations = {{ParticipantId{20}, 7}};
    recovery::MemberRecord m1;
    m1.id = ParticipantId{11};
    m1.name = "ada";
    m1.role = 1;
    m1.device = 2;
    m1.physical = true;
    m1.room = ClassroomId{1};
    m1.seat_index = 0;
    recovery::MemberRecord m2;
    m2.id = ParticipantId{30};
    m2.name = "bo";
    m2.device = 3;
    m2.region = 2;
    cp.members = {m1, m2};
    recovery::ContentRecord c;
    c.id = ContentId{5};
    c.creator = ParticipantId{11};
    c.kind = 2;
    c.scope = 1;
    c.title = "notes";
    c.size_bytes = 4096;
    c.created_at_ns = 1'500'000'000;
    c.anchored_to_person = true;
    c.anchor_person = ParticipantId{30};
    c.anchor_consent = true;
    cp.content = {c};
    recovery::ReplicaRecord r;
    r.participant = ParticipantId{30};
    r.source_room = ClassroomId{2};
    r.anchored = true;
    r.has_seat = true;
    r.seat_index = 4;
    r.source_anchor.position = {1.0, 0.0, -2.0};
    r.seat_pose.position = {3.0, 0.0, 1.5};
    r.seat_pose.orientation = math::Quat{0.0, 0.0, 1.0, 0.0};
    r.captured_at_ns = 4'900'000'000;
    r.reference = {1, 2, 3, 4, 5};
    cp.replicas = {r};

    const std::vector<std::uint8_t> bytes = recovery::encode_checkpoint(cp);
    EXPECT_EQ(hex(bytes),
              "4b43564d010008000000656467652d637762030000000000000000f2052a0100"
              "000002000000000000000b000000040000000c00000001000000140000000700"
              "0000020000000b000000030000006164610102010100000000000000001e0000"
              "0002000000626f00030000000000000000000201000000050000000b00000002"
              "01050000006e6f7465730010000000000000002f685900000000011e00000001"
              "010000001e00000002000000010104000000000000000000f03f000000000000"
              "000000000000000000c0000000000000f03f0000000000000000000000000000"
              "0000000000000000000000000000000008400000000000000000000000000000"
              "f83f00000000000000000000000000000000000000000000f03f000000000000"
              "00000011102401000000050000000102030405bd31f64a");
    EXPECT_EQ(recovery::decode_checkpoint(bytes), cp);
}

// ------------------------------------------------------------------- traces

TEST(GoldenBytesTest, TraceHeaderAndOneChunk) {
    replay::WireRecord wire;
    wire.t_ns = 5'000'000;
    wire.shard = 2;
    wire.flow = (2u << 16) | 1u;
    wire.src = 3;
    wire.dst = 9;
    wire.size_bytes = 512;
    wire.priority = 1;
    wire.avatars.push_back(replay::AvatarUpdate{42, 1, true, 4'900'000, {0xDE, 0xAD}});
    wire.avatars.push_back(replay::AvatarUpdate{300, 1, false, 4'950'000, {0x01}});
    const std::vector<replay::Record> records{
        replay::FlowDef{7, "avatar"},
        replay::NodeDef{2, 5, "edge-cwb"},
        replay::SubjectDef{3, "shard/2"},
        wire,
        replay::HashRecord{6'000'000, 60, 3, 0xABCDEF0123456789ULL},
        replay::CheckpointRecord{7'000'000, "edge-cwb", {1, 2, 3}},
    };

    replay::MemorySink sink;
    replay::TraceWriter writer{sink, 11, "golden", 123};
    std::vector<std::uint8_t> scratch;
    for (const replay::Record& rec : records) {
        scratch.clear();
        replay::encode_record(scratch, rec);
        writer.append(scratch, 1, 0, std::holds_alternative<replay::CheckpointRecord>(rec));
    }
    writer.finish();
    const std::vector<std::uint8_t> bytes = sink.take();
    EXPECT_EQ(hex(bytes),
              "5254564d01000b000000000000007b0000000000000006676f6c64656ef005b3"
              "bb4843564d640000000600000000000000000000000119e63390010706617661"
              "74617202020508656467652d63776203030773686172642f3204c096b1020281"
              "8008030980040101022a0101a089ab0202deadac020100f08fae02010105809b"
              "ee023c038967452301efcdab06c09fab0308656467652d63776203010203");
    EXPECT_TRUE(replay::Trace::verify(bytes).ok);
}

TEST(GoldenBytesTest, RecorderTapTrace) {
    sim::Simulator sim{5};
    net::Network net{sim};
    const net::NodeId a = net.add_node("cwb", net::Region::HongKong);
    const net::NodeId b = net.add_node("gz", net::Region::Guangzhou);
    net.connect(a, b, net::LinkParams{});

    replay::MemorySink sink;
    replay::Recorder rec{sink, 0xC0FFEE, "golden", 0};
    rec.attach(net);
    sync::AvatarBatchWire batch;
    batch.updates = {golden_wire(1), golden_wire(2)};
    ASSERT_TRUE(net.send(a, b, 96, "avatar", net::Payload{golden_wire(9)}));
    ASSERT_TRUE(net.send(a, b, 180, "avatar.batch", net::Payload{batch}));
    ASSERT_TRUE(net.send(b, a, 40, "ctl", net::Payload{std::uint64_t{1}}));
    sim.run_all();
    rec.drain_all();
    rec.record_hash(1, rec.subject("sim"), 0x1122334455667788ULL, sim::Time::ms(2));
    const std::vector<std::uint8_t> cp{0xAA, 0xBB};
    rec.record_checkpoint("edge-cwb", cp, sim::Time::ms(3));
    rec.finish();
    ASSERT_TRUE(rec.error().empty());
    EXPECT_EQ(hex(sink.bytes()),
              "5254564d0100eeffc00000000000000000000000000006676f6c64656eb5678c"
              "4a4843564d920000000b00000000000000000000000100ecf983020001036377"
              "6202000202677a01010661766174617204000001010260010101090301c0b8c6"
              "1304deadbe0901020c6176617461722e6261746368040000020102b401010102"
              "010301c0b8c61304deadbe01020300c0b8c61304deadbe0201030363746c0400"
              "0003020128010003010373696d0580897a0101887766554433221106c08db701"
              "08656467652d63776202aabb");
}

}  // namespace
}  // namespace mvc
