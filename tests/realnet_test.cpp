// Tests for the real-transport stack: the WallClock timer queue, the
// datagram wire format (round-trips, truncation, corruption, unknown tags,
// trailing garbage, CRC before varints, canonical varints), the RealUdpBackend loopback path (echo, ingress loss,
// reliable delivery through the ARQ over an actual socket), and the
// open_channel spec validation shared by every backend.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "avatar/codec.hpp"
#include "common/bytes.hpp"
#include "core/wire_codecs.hpp"
#include "fault/heartbeat.hpp"
#include "net/real_udp.hpp"
#include "net/transport.hpp"
#include "net/wire_format.hpp"
#include "recovery/resync.hpp"
#include "sim/wall_clock.hpp"
#include "sync/replication.hpp"
#include "sync/wire.hpp"

namespace mvc::net {
namespace {

struct CodecGuard : ::testing::Test {
    CodecGuard() { core::register_wire_codecs(); }
};

// ---------------------------------------------------------------- WallClock

TEST(WallClockTest, TimeAdvancesFromZero) {
    sim::WallClock clock{7};
    const sim::Time t0 = clock.now();
    EXPECT_GE(t0.nanos(), 0);
    EXPECT_LT(t0.nanos(), sim::Time::seconds(1.0).nanos());  // fresh epoch
}

TEST(WallClockTest, PastDeadlinesFireInOrderOnRunDue) {
    sim::WallClock clock{7};
    std::vector<int> order;
    // Scheduling into the past is legal: the timer fires on the next
    // run_due(), in deadline order with FIFO tie-break among equals.
    clock.schedule_at(sim::Time::ns(5), [&] { order.push_back(1); });
    clock.schedule_at(sim::Time::ns(5), [&] { order.push_back(2); });
    clock.schedule_at(sim::Time::zero(), [&] { order.push_back(0); });
    EXPECT_EQ(clock.pending_timers(), 3u);
    const std::size_t fired = clock.run_due();
    EXPECT_EQ(fired, 3u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(WallClockTest, CancelPreventsFiring) {
    sim::WallClock clock{7};
    int fired = 0;
    const sim::EventHandle h = clock.schedule_at(sim::Time::zero(), [&] { ++fired; });
    clock.cancel(h);
    clock.run_due();
    EXPECT_EQ(fired, 0);
}

TEST(WallClockTest, PeriodicTimerReArmsAndCancelsFromInsideCallback) {
    sim::WallClock clock{7};
    int ticks = 0;
    sim::EventHandle h{};
    // The callback must be able to cancel its own chain without the
    // periodic re-arm resurrecting it.
    h = clock.schedule_every(sim::Time::us(100), [&] {
        if (++ticks == 3) clock.cancel(h);
    });
    const sim::Time deadline = clock.now() + sim::Time::seconds(5.0);
    while (clock.pending_timers() > 0 && clock.now() < deadline) clock.run_due();
    EXPECT_EQ(ticks, 3);
    EXPECT_EQ(clock.pending_timers(), 0u);
}

TEST(WallClockTest, NextDeadlineReflectsEarliestTimer) {
    sim::WallClock clock{7};
    EXPECT_FALSE(clock.next_deadline().has_value());
    clock.schedule_at(sim::Time::seconds(100.0), [] {});
    const sim::EventHandle soon = clock.schedule_at(sim::Time::seconds(50.0), [] {});
    ASSERT_TRUE(clock.next_deadline().has_value());
    EXPECT_EQ(clock.next_deadline()->nanos(), sim::Time::seconds(50.0).nanos());
    clock.cancel(soon);
    EXPECT_EQ(clock.next_deadline()->nanos(), sim::Time::seconds(100.0).nanos());
}

TEST(WallClockTest, NamedRngStreamsMatchSimulatorConvention) {
    sim::WallClock a{42};
    sim::WallClock b{42};
    sim::Rng ra = a.rng_stream("link/wan");
    sim::Rng rb = b.rng_stream("link/wan");
    for (int i = 0; i < 16; ++i) EXPECT_EQ(ra.uniform_int(0, 1 << 30), rb.uniform_int(0, 1 << 30));
    sim::Rng other = a.rng_stream("link/lan");
    bool all_equal = true;
    sim::Rng ra2 = a.rng_stream("link/wan");
    for (int i = 0; i < 16; ++i)
        all_equal = all_equal && (ra2.uniform_int(0, 1 << 30) == other.uniform_int(0, 1 << 30));
    EXPECT_FALSE(all_equal);
}

// -------------------------------------------------------------- wire format

using WireFormatTest = CodecGuard;

Packet make_packet(Payload payload, std::string flow = "avatar") {
    Packet p;
    p.id = 77;
    p.src = 1;
    p.dst = 2;
    p.size_bytes = 1234;
    p.sent_at = sim::Time::ms(250);
    p.flow = std::move(flow);
    p.payload = std::move(payload);
    return p;
}

TEST_F(WireFormatTest, EmptyPayloadRoundTrips) {
    const auto frame = encode_frame(make_packet(Payload{}), Priority::Control);
    ASSERT_TRUE(frame.has_value());
    const auto decoded = decode_frame(*frame);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->priority, Priority::Control);
    EXPECT_EQ(decoded->packet.id, 77u);
    EXPECT_EQ(decoded->packet.src, 1u);
    EXPECT_EQ(decoded->packet.dst, 2u);
    EXPECT_EQ(decoded->packet.size_bytes, 1234u);
    EXPECT_EQ(decoded->packet.sent_at.nanos(), sim::Time::ms(250).nanos());
    EXPECT_EQ(decoded->packet.flow, "avatar");
    EXPECT_TRUE(decoded->packet.payload.empty());
}

TEST_F(WireFormatTest, AvatarWireRoundTripsThroughModelCodecs) {
    sync::AvatarWire w;
    w.participant = ParticipantId{9};
    w.source_room = ClassroomId{3};
    w.keyframe = true;
    w.captured_at = sim::Time::ms(41);
    w.bytes = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
    w.relay_to = {4, 5};
    const auto frame = encode_frame(make_packet(Payload{w}), Priority::Realtime);
    ASSERT_TRUE(frame.has_value());
    const auto decoded = decode_frame(*frame);
    ASSERT_TRUE(decoded.has_value());
    const auto& got = decoded->packet.payload.get<sync::AvatarWire>();
    EXPECT_EQ(got.participant, w.participant);
    EXPECT_EQ(got.source_room, w.source_room);
    EXPECT_TRUE(got.keyframe);
    EXPECT_EQ(got.captured_at.nanos(), w.captured_at.nanos());
    EXPECT_EQ(got.bytes, w.bytes);
    EXPECT_EQ(got.relay_to, w.relay_to);
}

// AvatarWire keeps its bytes inline up to sync::AvatarBytes' capacity and on
// the heap above it. A full keyframe spills, a small delta does not; each
// must frame to the same bytes from either storage, decode back into the
// storage its size implies, and rebuild the same replica state as the
// codec's own output.
TEST_F(WireFormatTest, InlineAndSpilledAvatarBytesFrameIdenticallyAndIngest) {
    constexpr std::size_t kInline = sync::AvatarBytes::kInlineCapacity;
    const avatar::AvatarCodec codec;
    avatar::AvatarState s;
    s.participant = ParticipantId{9};
    s.root.pose = {{3.2, 1.1, -7.5}, math::Quat::from_yaw_pitch_roll(0.4, 0.1, 0.0)};
    s.body.head = {s.root.pose.position + math::Vec3{0, 0.65, 0}, s.root.pose.orientation};
    s.expression.assign(avatar::kExpressionChannels, 0.25);
    s.captured_at = sim::Time::ms(40);
    avatar::AvatarState moved = s;
    moved.root.pose.position = s.root.pose.position + math::Vec3{0.1, 0.0, 0.0};
    moved.captured_at = sim::Time::ms(80);
    const std::vector<std::uint8_t> keyframe = codec.encode_full(s);
    const std::vector<std::uint8_t> delta = codec.encode_delta(s, moved);
    ASSERT_GT(keyframe.size(), kInline);
    ASSERT_LE(delta.size(), kInline);

    const auto wire_of = [](const std::vector<std::uint8_t>& bytes, bool is_keyframe,
                            bool force_heap) {
        sync::AvatarWire w;
        w.participant = ParticipantId{9};
        w.source_room = ClassroomId{3};
        w.keyframe = is_keyframe;
        w.captured_at = sim::Time::ms(41);
        // A buffer that has spilled keeps its heap block for shorter values.
        if (force_heap) w.bytes = std::vector<std::uint8_t>(kInline + 1);
        w.bytes = bytes;
        return w;
    };
    sync::AvatarReplica via_frames{codec};
    sync::AvatarReplica direct{codec};
    const sim::Time arrival = sim::Time::ms(100);
    for (const auto& [bytes, is_keyframe] :
         {std::pair{&keyframe, true}, std::pair{&delta, false}}) {
        const sync::AvatarWire natural = wire_of(*bytes, is_keyframe, false);
        const sync::AvatarWire spilled = wire_of(*bytes, is_keyframe, true);
        EXPECT_EQ(natural.bytes.on_heap(), bytes->size() > kInline);
        EXPECT_TRUE(spilled.bytes.on_heap());

        const auto frame = encode_frame(make_packet(Payload{natural}), Priority::Realtime);
        const auto frame_spilled =
            encode_frame(make_packet(Payload{spilled}), Priority::Realtime);
        ASSERT_TRUE(frame.has_value() && frame_spilled.has_value());
        EXPECT_TRUE(*frame == *frame_spilled);

        const auto decoded = decode_frame(*frame);
        ASSERT_TRUE(decoded.has_value());
        const auto& got = decoded->packet.payload.get<sync::AvatarWire>();
        EXPECT_EQ(got.bytes, *bytes);
        EXPECT_EQ(got.bytes.on_heap(), bytes->size() > kInline);
        via_frames.ingest(got.bytes, got.keyframe, arrival);
        direct.ingest(*bytes, is_keyframe, arrival);
    }
    EXPECT_EQ(via_frames.decoded(), 2u);
    EXPECT_EQ(via_frames.dropped_malformed(), 0u);
    EXPECT_EQ(via_frames.state_digest(), direct.state_digest());
}

TEST_F(WireFormatTest, BatchHeartbeatAndScalarPayloadsRoundTrip) {
    sync::AvatarBatchWire batch;
    batch.updates.resize(2);
    batch.updates[0].participant = ParticipantId{1};
    batch.updates[0].bytes = {1, 2, 3};
    batch.updates[1].participant = ParticipantId{2};
    batch.updates[1].keyframe = true;
    const auto f1 = encode_frame(make_packet(Payload{batch}), Priority::Realtime);
    ASSERT_TRUE(f1.has_value());
    const auto d1 = decode_frame(*f1);
    ASSERT_TRUE(d1.has_value());
    EXPECT_EQ(d1->packet.payload.get<sync::AvatarBatchWire>().updates.size(), 2u);

    const auto f2 =
        encode_frame(make_packet(Payload{fault::HeartbeatWire{99}}), Priority::Control);
    ASSERT_TRUE(f2.has_value());
    EXPECT_EQ(decode_frame(*f2)->packet.payload.get<fault::HeartbeatWire>().seq, 99u);

    const auto f3 =
        encode_frame(make_packet(Payload{std::uint64_t{123456}}), Priority::Bulk);
    ASSERT_TRUE(f3.has_value());
    EXPECT_EQ(decode_frame(*f3)->packet.payload.get<std::uint64_t>(), 123456u);

    const auto f4 =
        encode_frame(make_packet(Payload{std::string{"hello wire"}}), Priority::Bulk);
    ASSERT_TRUE(f4.has_value());
    EXPECT_EQ(decode_frame(*f4)->packet.payload.get<std::string>(), "hello wire");
}

TEST_F(WireFormatTest, UnregisteredPayloadTypeFailsToEncode) {
    struct Unregistered {
        int x;
    };
    EXPECT_FALSE(
        encode_frame(make_packet(Payload{Unregistered{1}}), Priority::Bulk).has_value());
}

TEST_F(WireFormatTest, TruncationAtEveryLengthIsRejected) {
    const auto frame =
        encode_frame(make_packet(Payload{std::string{"payload"}}), Priority::Realtime);
    ASSERT_TRUE(frame.has_value());
    for (std::size_t n = 0; n < frame->size(); ++n) {
        EXPECT_FALSE(decode_frame({frame->data(), n}).has_value())
            << "truncation to " << n << " bytes decoded";
    }
}

TEST_F(WireFormatTest, EverySingleBitFlipIsRejected) {
    const auto frame =
        encode_frame(make_packet(Payload{std::uint64_t{7}}), Priority::Realtime);
    ASSERT_TRUE(frame.has_value());
    for (std::size_t byte = 0; byte < frame->size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<std::byte> corrupt = *frame;
            corrupt[byte] ^= static_cast<std::byte>(1 << bit);
            const auto decoded = decode_frame(corrupt);
            // Either the CRC (or magic/version/length checks) rejects it, or
            // — never — it decodes to something different silently.
            EXPECT_FALSE(decoded.has_value())
                << "bit " << bit << " of byte " << byte << " went unnoticed";
        }
    }
}

TEST_F(WireFormatTest, TrailingGarbageIsRejected) {
    auto frame = encode_frame(make_packet(Payload{}), Priority::Realtime);
    ASSERT_TRUE(frame.has_value());
    frame->push_back(std::byte{0});
    EXPECT_FALSE(decode_frame(*frame).has_value());
}

// Frame for `payload` whose body ends in a zero u32 element count, with that
// count patched to 0xFFFFFFFF and the CRC recomputed: hostile, yet intact.
std::vector<std::byte> with_hostile_count(Payload payload) {
    const auto frame = encode_frame(make_packet(std::move(payload)), Priority::Realtime);
    if (!frame) {
        ADD_FAILURE() << "payload did not encode";
        return {};
    }
    std::vector<std::byte> f(frame->begin(), frame->end() - 4);  // drop the CRC
    std::fill(f.end() - 4, f.end(), std::byte{0xFF});
    common::put(f, common::crc32(f));
    return f;
}

TEST_F(WireFormatTest, CrcValidFrameWithHostileCountIsRejectedNotThrown) {
    sync::AvatarWire lone;  // relay_to count is the last field of the body
    recovery::ResyncSnapshot snap;
    const std::vector<std::vector<std::byte>> frames{
        with_hostile_count(Payload{sync::AvatarBatchWire{}}),
        with_hostile_count(Payload{lone}),
        with_hostile_count(Payload{snap}),
    };
    for (const auto& f : frames) {
        FrameDefect defect = FrameDefect::None;
        std::optional<DecodedFrame> decoded;
        EXPECT_NO_THROW(decoded = decode_frame(f, defect));
        EXPECT_FALSE(decoded.has_value());
        EXPECT_EQ(defect, FrameDefect::BadPayload);
    }
}

/// `head` (a frame without its CRC) closed with a valid CRC.
std::vector<std::byte> sealed(std::vector<std::byte> head) {
    common::put(head, common::crc32(head));
    return head;
}

/// The version-2 header of make_packet's frame up to the flow label (tag,
/// src 1, dst 2, id 77, size 1234, sent_at 250 ms), priority Realtime.
std::vector<std::byte> header_bytes(std::uint16_t tag) {
    std::vector<std::byte> f;
    common::put<std::uint32_t>(f, kWireMagic);
    common::put<std::uint8_t>(f, kWireVersion);
    common::put<std::uint8_t>(f, static_cast<std::uint8_t>(Priority::Realtime));
    common::put_varint(f, tag);
    common::put_varint(f, 1);
    common::put_varint(f, 2);
    common::put_varint(f, 77);
    common::put_varint(f, 1234);
    common::put_svarint(f, sim::Time::ms(250).nanos());
    return f;
}

TEST_F(WireFormatTest, HeaderBytesMatchTheEncoder) {
    std::vector<std::byte> want = header_bytes(core::kTagText);
    common::put_varint_bytes(want, std::string{"avatar"});
    common::put_varint_bytes(want, std::string{"hi"});
    const auto frame = encode_frame(make_packet(Payload{std::string{"hi"}}), Priority::Realtime);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(*frame, sealed(want));
}

TEST_F(WireFormatTest, CrcIsCheckedBeforeAnyLengthIsRead) {
    const auto frame = encode_frame(make_packet(Payload{std::string{"payload"}}), Priority::Realtime);
    ASSERT_TRUE(frame.has_value());
    // The flow label's length byte now claims more bytes than the frame has:
    // the CRC reports the corruption before the parser could trust it.
    std::vector<std::byte> corrupt = *frame;
    const std::size_t flow_len_at = header_bytes(core::kTagText).size();
    ASSERT_EQ(corrupt[flow_len_at], std::byte{6});
    corrupt[flow_len_at] = std::byte{0x7F};
    FrameDefect defect = FrameDefect::None;
    EXPECT_FALSE(decode_frame(corrupt, defect).has_value());
    EXPECT_EQ(defect, FrameDefect::CrcMismatch);
}

TEST_F(WireFormatTest, CrcValidNonMinimalOrOverwideHeaderVarintIsRejected) {
    const auto with_flow = [](std::vector<std::byte> f) {
        common::put_varint_bytes(f, std::string{"x"});
        return sealed(std::move(f));
    };
    // The baseline decodes: an empty payload and flow "x".
    FrameDefect defect = FrameDefect::None;
    EXPECT_TRUE(decode_frame(with_flow(header_bytes(kTagEmpty)), defect).has_value());

    // src 1 padded to two bytes.
    std::vector<std::byte> padded = header_bytes(kTagEmpty);
    padded[7] = std::byte{0x81};
    padded.insert(padded.begin() + 8, std::byte{0x00});
    EXPECT_FALSE(decode_frame(with_flow(padded), defect).has_value());
    EXPECT_EQ(defect, FrameDefect::Truncated);

    // A tag wider than 16 bits.
    std::vector<std::byte> wide;
    common::put<std::uint32_t>(wide, kWireMagic);
    common::put<std::uint8_t>(wide, kWireVersion);
    common::put<std::uint8_t>(wide, 0);
    common::put_varint(wide, 0x10000 + core::kTagText);
    for (int i = 0; i < 5; ++i) common::put_varint(wide, 1);
    EXPECT_FALSE(decode_frame(with_flow(wide), defect).has_value());
    EXPECT_EQ(defect, FrameDefect::Truncated);
}

TEST_F(WireFormatTest, CrcValidBodyWithHostileVarintCountIsRejected) {
    // An avatar batch claiming 2^32 - 1 records in a 5-byte body.
    std::vector<std::byte> f = header_bytes(core::kTagAvatarBatch);
    common::put_varint_bytes(f, std::string{"avatar.batch"});
    common::put_varint(f, 0xFFFFFFFFULL);
    FrameDefect defect = FrameDefect::None;
    std::optional<DecodedFrame> decoded;
    EXPECT_NO_THROW(decoded = decode_frame(sealed(std::move(f)), defect));
    EXPECT_FALSE(decoded.has_value());
    EXPECT_EQ(defect, FrameDefect::BadPayload);
}

TEST_F(WireFormatTest, ArqSegmentInsideASegmentIsRejected) {
    // seq 0, first_sent 0, transmission 1, then the nested tag and body.
    const auto segment = [](std::vector<std::byte> nested) {
        std::vector<std::byte> f = header_bytes(core::kTagArqData);
        common::put_varint_bytes(f, std::string{"arq"});
        for (const std::uint8_t b : {0, 0, 1}) f.push_back(static_cast<std::byte>(b));
        f.insert(f.end(), nested.begin(), nested.end());
        return sealed(std::move(f));
    };
    const std::vector<std::byte> empty{std::byte{0}};
    FrameDefect defect = FrameDefect::None;
    EXPECT_TRUE(decode_frame(segment(empty), defect).has_value());
    std::vector<std::byte> inner{static_cast<std::byte>(core::kTagArqData), std::byte{0},
                                 std::byte{0}, std::byte{1}, std::byte{0}};
    EXPECT_FALSE(decode_frame(segment(inner), defect).has_value());
    EXPECT_EQ(defect, FrameDefect::BadPayload);
}

TEST_F(WireFormatTest, BatchTimesAreDeltasAndRoundTripAtTheExtremes) {
    sync::AvatarBatchWire batch;
    batch.updates.resize(4);
    batch.updates[0].captured_at = sim::Time::ns(std::numeric_limits<std::int64_t>::max());
    batch.updates[1].captured_at = sim::Time::ns(std::numeric_limits<std::int64_t>::min());
    batch.updates[2].captured_at = sim::Time::ms(5);
    batch.updates[3].captured_at = sim::Time::ms(5);
    const auto frame = encode_frame(make_packet(Payload{batch}), Priority::Realtime);
    ASSERT_TRUE(frame.has_value());
    const auto decoded = decode_frame(*frame);
    ASSERT_TRUE(decoded.has_value());
    const auto& got = decoded->packet.payload.get<sync::AvatarBatchWire>().updates;
    ASSERT_EQ(got.size(), 4u);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].captured_at.nanos(), batch.updates[i].captured_at.nanos()) << i;
    // The last record repeats its predecessor's time: a one-byte zero delta
    // takes the place of the eight-byte timestamp.
    const auto one = encode_frame(make_packet(Payload{sync::AvatarBatchWire{{batch.updates[2]}}}),
                                  Priority::Realtime);
    const auto two = encode_frame(
        make_packet(Payload{sync::AvatarBatchWire{{batch.updates[2], batch.updates[3]}}}),
        Priority::Realtime);
    ASSERT_TRUE(one.has_value() && two.has_value());
    EXPECT_EQ(two->size() - one->size(), 7u);  // 7 one-byte fields, no bytes, no relays
}

TEST_F(WireFormatTest, TagCollisionsThrowAndReRegistrationIsIdempotent) {
    core::register_wire_codecs();  // second call: idempotent
    struct Foreign {
        int x;
    };
    EXPECT_THROW(WireCodecs::instance().register_codec<Foreign>(
                     core::kTagAvatar, [](const Payload&, std::vector<std::byte>&) {},
                     [](std::span<const std::byte>) { return std::nullopt; }),
                 std::logic_error);
}

// ------------------------------------------------------------ RealUdpBackend

using RealUdpTest = CodecGuard;

/// Pump the loop until `done` or the deadline; returns whether `done`.
bool pump_until(RealUdpBackend& net, const std::function<bool()>& done,
                sim::Time budget = sim::Time::seconds(5.0)) {
    const sim::Time deadline = net.wall_clock().now() + budget;
    while (!done() && net.wall_clock().now() < deadline)
        net.poll_once(sim::Time::ms(10));
    return done();
}

TEST_F(RealUdpTest, LoopbackEchoRoundTrip) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::Guangzhou);
    EXPECT_TRUE(net.is_local(a));
    EXPECT_GT(net.port_of(a), 0);
    EXPECT_EQ(net.node_count(), 2u);
    EXPECT_TRUE(net.node_up(a));

    std::string got_at_b;
    std::string got_at_a;
    net.set_handler(b, [&](Packet&& p) {
        got_at_b = p.payload.get<std::string>();
        // Echo straight back over the same fabric.
        (void)net.send(b, a, 32, "echo", Payload{std::string{"pong"}});
    });
    net.set_handler(a, [&](Packet&& p) { got_at_a = p.payload.get<std::string>(); });

    ASSERT_TRUE(net.send(a, b, 32, "echo", Payload{std::string{"ping"}}));
    ASSERT_TRUE(pump_until(net, [&] { return !got_at_a.empty(); }));
    EXPECT_EQ(got_at_b, "ping");
    EXPECT_EQ(got_at_a, "pong");
    EXPECT_EQ(net.datagrams_sent(), 2u);
    EXPECT_EQ(net.datagrams_received(), 2u);
    EXPECT_EQ(net.decode_errors(), 0u);
    EXPECT_EQ(net.metrics().counter("net.rx.echo"), 2u);
}

TEST_F(RealUdpTest, TxBytesCountersChargeTheFramesSent) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::Guangzhou);
    int delivered = 0;
    net.set_handler(b, [&](Packet&&) { ++delivered; });

    // Model sizes far from the frame sizes, over two flows and payload types.
    sync::AvatarWire wire;
    wire.participant = ParticipantId{7};
    wire.bytes = std::vector<std::uint8_t>(60, 0xAB);
    ASSERT_TRUE(net.send(a, b, 1000, std::string{sync::kAvatarFlow}, Payload{wire}));
    ASSERT_TRUE(net.send(a, b, 5, "echo", Payload{std::string{"ping"}}));
    ASSERT_TRUE(net.send(a, b, 3, "echo", Payload{std::uint64_t{9}}));
    ASSERT_TRUE(pump_until(net, [&] { return delivered >= 3; }));

    std::uint64_t tx_bytes = 0;
    for (const auto& [key, value] : net.metrics().counters())
        if (key.starts_with("net.tx_bytes.")) tx_bytes += value;
    EXPECT_EQ(tx_bytes, net.bytes_sent());
    EXPECT_GT(net.metrics().counter("net.tx_bytes.avatar"), 60u);
    EXPECT_LT(net.metrics().counter("net.tx_bytes.avatar"), 1000u);
}

/// Fire raw bytes at a UDP port through a throwaway socket — the hostile/
/// broken-sender path no backend API can produce.
void send_raw(std::uint16_t port, std::span<const std::byte> bytes) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in to{};
    to.sin_family = AF_INET;
    to.sin_port = htons(port);
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
    ASSERT_EQ(::sendto(fd, bytes.data(), bytes.size(), 0,
                       reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
              static_cast<ssize_t>(bytes.size()));
    ::close(fd);
}

TEST_F(RealUdpTest, CorruptAndForeignDatagramsAreCountedAndDropped) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    int delivered = 0;
    net.set_handler(b, [&](Packet&&) { ++delivered; });

    // Pure garbage, a truncated frame, and a bit-flipped frame.
    const std::vector<std::byte> junk{std::byte{0x01}, std::byte{0x02}, std::byte{0x03}};
    send_raw(net.port_of(b), junk);

    Packet p;
    p.id = 1;
    p.src = a;
    p.dst = b;
    p.size_bytes = 8;
    p.flow = "good";
    p.payload = Payload{std::uint64_t{3}};
    auto frame = encode_frame(p, Priority::Bulk);
    ASSERT_TRUE(frame.has_value());
    send_raw(net.port_of(b), std::span{*frame}.first(frame->size() - 3));
    std::vector<std::byte> flipped = *frame;
    flipped[flipped.size() / 2] ^= std::byte{0x40};
    send_raw(net.port_of(b), flipped);

    // A legitimate send must still get through amid the garbage.
    ASSERT_TRUE(net.send(a, b, 8, "good", Payload{std::uint64_t{2}}));
    ASSERT_TRUE(pump_until(net, [&] { return net.decode_errors() >= 3 && delivered >= 1; }));
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(net.metrics().counter("net.wire_decode_error"), 3u);
}

TEST_F(RealUdpTest, IngressDropHookCountsAndSuppressesDelivery) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    int delivered = 0;
    net.set_handler(b, [&](Packet&&) { ++delivered; });
    net.set_ingress_drop([](const Packet& p) { return p.id % 2 == 1; });

    for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(net.send(a, b, 16, "lossy", Payload{i}));
    pump_until(net, [&] { return delivered >= 5; }, sim::Time::seconds(2.0));
    EXPECT_EQ(delivered, 5);
    EXPECT_EQ(net.metrics().counter("net.test_drop"), 5u);
    net.set_ingress_drop(nullptr);
}

TEST_F(RealUdpTest, ReliableChannelDeliversInOrderThroughInjectedLoss) {
    RealUdpBackend net{RealUdpBackend::Options{.seed = 0xA1}};
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::Guangzhou);
    PacketDemux demux_a{net, a};
    PacketDemux demux_b{net, b};

    Channel ch = net.open_channel(
        {.src_demux = &demux_a,
         .dst_demux = &demux_b,
         .flow = "stream",
         .options = {.reliability = Reliability::Reliable, .priority = Priority::Bulk}});
    ASSERT_NE(ch.arq(), nullptr);

    // Drop every third data segment at ingress; ACKs pass. The ARQ's
    // retransmission timers run on the WallClock.
    std::uint64_t seen = 0;
    net.set_ingress_drop([&seen](const Packet& p) {
        return p.flow == "stream" && ++seen % 3 == 0;
    });

    std::vector<std::uint64_t> delivered;
    ch.on_delivered([&](Payload payload, sim::Time, int) {
        delivered.push_back(payload.take<std::uint64_t>());
    });
    constexpr std::uint64_t kCount = 12;
    for (std::uint64_t i = 0; i < kCount; ++i) ch.send(64, i);
    ASSERT_TRUE(pump_until(net, [&] { return delivered.size() >= kCount; },
                           sim::Time::seconds(20.0)));
    ASSERT_EQ(delivered.size(), kCount);
    for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(delivered[i], i);
    EXPECT_GT(ch.arq()->retransmissions(), 0u);
    net.set_ingress_drop(nullptr);
}

TEST_F(RealUdpTest, OpenChannelSpecValidation) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    EXPECT_THROW(net.open_channel({.src = a, .flow = {}}), std::logic_error);  // no flow
    EXPECT_THROW(net.open_channel({.flow = "x"}), std::logic_error);  // no src
    EXPECT_THROW(
        net.open_channel({.src = a,
                          .flow = "x",
                          .options = {.reliability = Reliability::Reliable}}),
        std::logic_error);  // reliable needs both demuxes
}

TEST_F(RealUdpTest, HeartbeatMonitorRunsOverRealTransport) {
    RealUdpBackend net;
    const NodeId a = net.add_node("a", Region::HongKong);
    const NodeId b = net.add_node("b", Region::HongKong);
    PacketDemux demux_a{net, a};
    PacketDemux demux_b{net, b};

    fault::HeartbeatParams params;
    params.enabled = true;
    params.interval = sim::Time::ms(5);
    params.timeout = sim::Time::ms(50);
    fault::HeartbeatMonitor mon_a{net, demux_a, params, "hb.a"};
    fault::HeartbeatMonitor mon_b{net, demux_b, params, "hb.b"};
    mon_a.watch(b);
    mon_b.watch(a);
    mon_a.start();
    mon_b.start();
    ASSERT_TRUE(pump_until(
        net,
        [&] {
            return mon_a.last_seen(b).nanos() > 0 && mon_b.last_seen(a).nanos() > 0 &&
                   mon_a.alive(b) && mon_b.alive(a);
        },
        sim::Time::seconds(5.0)));
    mon_a.stop();
    mon_b.stop();
}

}  // namespace
}  // namespace mvc::net
