// Crash-recovery subsystem tests: the checksummed checkpoint codec (known
// CRC vectors, seeded-random round-trip fuzzing, corruption detection), the
// durable CheckpointStore ring, the periodic Checkpointer, the hysteresis
// AdmissionGate, reconnect resync over the transport, and the end-to-end
// crash/restore + overload paths through EdgeServer and MetaverseClassroom.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "avatar/codec.hpp"
#include "cloud/cloud_server.hpp"
#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "core/classroom.hpp"
#include "edge/edge_server.hpp"
#include "edge/seats.hpp"
#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "recovery/admission.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/checkpointer.hpp"
#include "recovery/resync.hpp"
#include "recovery/store.hpp"
#include "sim/rng.hpp"
#include "sync/wire.hpp"

namespace mvc::recovery {
namespace {

// ---------------------------------------------------------- checkpoint codec

TEST(CheckpointCodecTest, Crc32MatchesKnownVector) {
    // The checkpoint trailer is common::crc32: the canonical IEEE 802.3
    // check value for "123456789", and the CRC of an encoded checkpoint's
    // body sits little-endian in its last four bytes.
    const std::string s = "123456789";
    EXPECT_EQ(common::crc32(s), 0xCBF43926u);
    EXPECT_EQ(common::crc32(std::string_view{}), 0x00000000u);
    const auto bytes = encode_checkpoint(ClassroomCheckpoint{});
    const std::uint32_t c = common::crc32(std::span{bytes}.first(bytes.size() - 4));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(bytes[bytes.size() - 4 + static_cast<std::size_t>(i)],
                  static_cast<std::uint8_t>(c >> (8 * i)));
}

TEST(CheckpointCodecTest, EmptyCheckpointRoundTrips) {
    ClassroomCheckpoint cp;
    cp.node = "edge-cwb";
    cp.sequence = 7;
    cp.taken_at_ns = sim::Time::seconds(12.5).nanos();
    const auto bytes = encode_checkpoint(cp);
    const ClassroomCheckpoint back = decode_checkpoint(bytes);
    EXPECT_EQ(back, cp);
}

math::Pose random_pose(sim::Rng& rng) {
    math::Pose p;
    p.position = {rng.uniform(-10, 10), rng.uniform(0, 3), rng.uniform(-10, 10)};
    // Unnormalised quaternions are fine: the codec stores raw components.
    p.orientation = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1),
                     rng.uniform(-1, 1)};
    return p;
}

std::string random_name(sim::Rng& rng) {
    static const char* kNames[] = {"ada", "bo", "chen", "dara", "", "a-very-long-name"};
    return kNames[rng.index(6)];
}

ClassroomCheckpoint random_checkpoint(sim::Rng& rng) {
    ClassroomCheckpoint cp;
    cp.node = "edge-" + random_name(rng);
    cp.sequence = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    cp.taken_at_ns = rng.uniform_int(0, 60'000'000'000);
    for (std::int64_t i = 0, n = rng.uniform_int(0, 5); i < n; ++i) {
        cp.seats.push_back(SeatRecord{
            static_cast<std::uint32_t>(rng.uniform_int(0, 40)),
            ParticipantId{static_cast<std::uint32_t>(rng.uniform_int(1, 99))}});
    }
    for (std::int64_t i = 0, n = rng.uniform_int(0, 3); i < n; ++i) {
        cp.reservations.push_back(ReservationRecord{
            ParticipantId{static_cast<std::uint32_t>(rng.uniform_int(1, 99))},
            static_cast<std::uint32_t>(rng.uniform_int(0, 40))});
    }
    for (std::int64_t i = 0, n = rng.uniform_int(0, 6); i < n; ++i) {
        MemberRecord m;
        m.id = ParticipantId{static_cast<std::uint32_t>(rng.uniform_int(1, 99))};
        m.name = random_name(rng);
        m.role = static_cast<std::uint8_t>(rng.uniform_int(0, 4));
        m.device = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
        m.physical = rng.chance(0.5);
        if (m.physical) {
            m.room = ClassroomId{static_cast<std::uint32_t>(rng.uniform_int(1, 3))};
            m.seat_index = static_cast<std::uint32_t>(rng.uniform_int(0, 40));
        } else {
            m.region = static_cast<std::uint8_t>(rng.uniform_int(0, 5));
        }
        cp.members.push_back(std::move(m));
    }
    for (std::int64_t i = 0, n = rng.uniform_int(0, 4); i < n; ++i) {
        ContentRecord c;
        c.id = ContentId{static_cast<std::uint32_t>(rng.uniform_int(1, 500))};
        c.creator = ParticipantId{static_cast<std::uint32_t>(rng.uniform_int(1, 99))};
        c.kind = static_cast<std::uint8_t>(rng.uniform_int(0, 4));
        c.scope = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
        c.title = "item-" + std::to_string(rng.uniform_int(0, 1000));
        c.size_bytes = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
        c.created_at_ns = rng.uniform_int(0, 60'000'000'000);
        c.anchored_to_person = rng.chance(0.3);
        c.anchor_person =
            ParticipantId{static_cast<std::uint32_t>(rng.uniform_int(0, 99))};
        c.anchor_consent = rng.chance(0.5);
        cp.content.push_back(std::move(c));
    }
    for (std::int64_t i = 0, n = rng.uniform_int(0, 4); i < n; ++i) {
        ReplicaRecord r;
        r.participant = ParticipantId{static_cast<std::uint32_t>(rng.uniform_int(1, 99))};
        r.source_room = ClassroomId{static_cast<std::uint32_t>(rng.uniform_int(1, 3))};
        r.anchored = rng.chance(0.7);
        r.has_seat = r.anchored;
        r.seat_index = static_cast<std::uint32_t>(rng.uniform_int(0, 40));
        r.source_anchor = random_pose(rng);
        r.seat_pose = random_pose(rng);
        r.captured_at_ns = rng.uniform_int(0, 60'000'000'000);
        for (std::int64_t b = 0, nb = rng.uniform_int(0, 80); b < nb; ++b) {
            r.reference.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        }
        cp.replicas.push_back(std::move(r));
    }
    return cp;
}

TEST(CheckpointCodecTest, FuzzRoundTripSeededRandomStates) {
    sim::Rng rng{2024};
    for (int trial = 0; trial < 50; ++trial) {
        const ClassroomCheckpoint cp = random_checkpoint(rng);
        const auto bytes = encode_checkpoint(cp);
        const ClassroomCheckpoint back = decode_checkpoint(bytes);
        EXPECT_EQ(back, cp) << "trial " << trial;
    }
}

TEST(CheckpointCodecTest, EverySingleByteFlipIsDetected) {
    sim::Rng rng{7};
    const ClassroomCheckpoint cp = random_checkpoint(rng);
    const auto bytes = encode_checkpoint(cp);
    ASSERT_GT(bytes.size(), 14u);
    // Flip every byte in turn (body, header, and the CRC itself): the
    // checksum — or for CRC-field flips, the mismatch against the body —
    // must reject each one.
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        auto corrupt = bytes;
        corrupt[i] ^= 0x40;
        EXPECT_THROW(decode_checkpoint(corrupt), CheckpointError) << "byte " << i;
    }
}

TEST(CheckpointCodecTest, SingleBitFlipsDetected) {
    sim::Rng rng{8};
    const ClassroomCheckpoint cp = random_checkpoint(rng);
    const auto bytes = encode_checkpoint(cp);
    for (int trial = 0; trial < 64; ++trial) {
        auto corrupt = bytes;
        const std::size_t byte = rng.index(corrupt.size());
        corrupt[byte] ^= static_cast<std::uint8_t>(1u << rng.index(8));
        EXPECT_THROW(decode_checkpoint(corrupt), CheckpointError);
    }
}

TEST(CheckpointCodecTest, TruncationAndTrailingBytesRejected) {
    ClassroomCheckpoint cp;
    cp.node = "edge";
    const auto bytes = encode_checkpoint(cp);
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + static_cast<long>(keep));
        EXPECT_THROW(decode_checkpoint(prefix), CheckpointError) << "keep " << keep;
    }
    auto padded = bytes;
    padded.push_back(0);
    EXPECT_THROW(decode_checkpoint(padded), CheckpointError);
}

// Patch the trailing CRC so only the targeted header corruption is visible.
std::vector<std::uint8_t> with_fixed_crc(std::vector<std::uint8_t> bytes) {
    const std::uint32_t c = common::crc32(std::span{bytes}.first(bytes.size() - 4));
    for (int i = 0; i < 4; ++i) {
        bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(c >> (8 * i));
    }
    return bytes;
}

TEST(CheckpointCodecTest, BadMagicAndUnknownVersionRejected) {
    ClassroomCheckpoint cp;
    cp.node = "edge";
    const auto bytes = encode_checkpoint(cp);

    auto bad_magic = bytes;
    bad_magic[0] ^= 0xFF;
    EXPECT_THROW(decode_checkpoint(with_fixed_crc(bad_magic)), CheckpointError);

    auto bad_version = bytes;
    bad_version[4] = 0x7F;  // version is the little-endian u16 after the magic
    EXPECT_THROW(decode_checkpoint(with_fixed_crc(bad_version)), CheckpointError);
}

// ------------------------------------------------------------------- store

TEST(CheckpointStoreTest, RingRetainsNewestPerOwner) {
    CheckpointStore store{3};
    for (std::uint8_t i = 1; i <= 5; ++i) {
        store.put("edge-a", std::vector<std::uint8_t>{i, i});
    }
    store.put("edge-b", std::vector<std::uint8_t>{9});
    EXPECT_EQ(store.count("edge-a"), 3u);
    EXPECT_EQ(store.count("edge-b"), 1u);
    EXPECT_EQ(store.count("absent"), 0u);
    EXPECT_EQ(store.total_puts(), 6u);
    EXPECT_EQ(store.bytes_stored("edge-a"), 6u);
    const auto latest = store.latest("edge-a");
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(*latest, (std::vector<std::uint8_t>{5, 5}));
    EXPECT_FALSE(store.latest("absent").has_value());
}

// -------------------------------------------------------------- checkpointer

TEST(CheckpointerTest, PeriodicCadencePauseAndResume) {
    sim::Simulator sim{3};
    sim::MetricsRecorder metrics;
    CheckpointStore store{3};
    RecoveryParams params;
    params.enabled = true;
    params.checkpoint_interval = sim::Time::seconds(2.0);
    params.store = &store;
    int captures = 0;
    Checkpointer ck{sim, metrics, params, "edge-a", [&](ClassroomCheckpoint& cp) {
                        ++captures;
                        cp.seats.push_back(SeatRecord{1, ParticipantId{2}});
                    }};
    ck.start();
    sim.run_until(sim::Time::seconds(10.0));
    EXPECT_EQ(ck.taken(), 5u);  // t = 2,4,6,8,10
    EXPECT_EQ(captures, 5);
    EXPECT_EQ(store.count("edge-a"), 3u);  // ring kept the newest three

    ck.pause();  // crash: a down process takes no checkpoints
    sim.run_until(sim::Time::seconds(20.0));
    EXPECT_EQ(ck.taken(), 5u);

    ck.resume();
    sim.run_until(sim::Time::seconds(24.0));
    EXPECT_EQ(ck.taken(), 7u);

    // Checkpoints carry monotonic sequence numbers and decode cleanly.
    const ClassroomCheckpoint cp = decode_checkpoint(*store.latest("edge-a"));
    EXPECT_EQ(cp.sequence, 7u);
    EXPECT_EQ(cp.node, "edge-a");
    EXPECT_EQ(cp.taken_at(), sim::Time::seconds(24.0));
    ASSERT_EQ(cp.seats.size(), 1u);
}

// ----------------------------------------------------------- admission gate

TEST(AdmissionGateTest, HysteresisEnterHoldExit) {
    AdmissionParams p;
    p.enabled = true;
    p.queue_capacity = 64;
    p.shed_enter_depth = 32;
    p.shed_exit_depth = 8;
    p.hold = sim::Time::ms(100);
    AdmissionGate gate{p};

    // Above enter but not held long enough: no flip.
    EXPECT_FALSE(gate.update(40, sim::Time::ms(0)));
    EXPECT_FALSE(gate.update(40, sim::Time::ms(50)));
    EXPECT_FALSE(gate.shedding());
    // Hold elapsed: start shedding.
    EXPECT_TRUE(gate.update(40, sim::Time::ms(100)));
    EXPECT_TRUE(gate.shedding());
    // Mid-band depth keeps the state (hysteresis gap).
    EXPECT_FALSE(gate.update(20, sim::Time::ms(150)));
    EXPECT_TRUE(gate.shedding());
    // Below exit, but the hold must elapse down there too.
    EXPECT_FALSE(gate.update(4, sim::Time::ms(200)));
    EXPECT_TRUE(gate.update(4, sim::Time::ms(300)));
    EXPECT_FALSE(gate.shedding());
    EXPECT_EQ(gate.transitions(), 2u);
}

TEST(AdmissionGateTest, OscillationAcrossMidBandNeverFlaps) {
    AdmissionParams p;
    p.enabled = true;
    p.shed_enter_depth = 32;
    p.shed_exit_depth = 8;
    p.hold = sim::Time::ms(100);
    AdmissionGate gate{p};
    // Depth bouncing between the thresholds resets both hold clocks.
    for (int t = 0; t < 2000; t += 10) {
        gate.update(t % 20 == 0 ? 31 : 9, sim::Time::ms(t));
    }
    EXPECT_EQ(gate.transitions(), 0u);
    EXPECT_FALSE(gate.shedding());
}

TEST(AdmissionGateTest, InvertedOrEmptyBandThrows) {
    AdmissionParams p;
    p.shed_enter_depth = 10;
    p.shed_exit_depth = 50;
    EXPECT_THROW(AdmissionGate{p}, std::invalid_argument);
    p.shed_exit_depth = 10;  // no gap: exit must sit strictly below enter
    EXPECT_THROW(AdmissionGate{p}, std::invalid_argument);
    p.shed_exit_depth = 9;
    EXPECT_NO_THROW(AdmissionGate{p});
}

// ------------------------------------------------------------------ resync

struct ResyncRig {
    sim::Simulator sim{5};
    net::Network net{sim};
    net::NodeId a = net.add_node("a", net::Region::HongKong);
    net::NodeId b = net.add_node("b", net::Region::Guangzhou);
    net::PacketDemux demux_a{net, a};
    net::PacketDemux demux_b{net, b};

    ResyncRig() {
        net::WanTopology wan;
        net.connect_wan(a, b, wan);
    }
};

std::vector<ResyncEntry> two_entries() {
    std::vector<ResyncEntry> entries(2);
    entries[0].participant = ParticipantId{1};
    entries[0].source_room = ClassroomId{1};
    entries[0].bytes = {1, 2, 3};
    entries[1].participant = ParticipantId{2};
    entries[1].source_room = ClassroomId{1};
    entries[1].bytes = {4, 5};
    return entries;
}

TEST(ResyncTest, OneRoundTripDeliversSnapshotAndForcesKeyframes) {
    ResyncRig rig;
    int keyframes_forced = 0;
    ResyncResponder responder{rig.net, rig.demux_a, two_entries,
                              [&] { ++keyframes_forced; }};
    std::vector<ResyncEntry> applied;
    ResyncClient client{rig.net, rig.demux_b,
                        [&](const ResyncSnapshot& snap, net::NodeId from) {
                            EXPECT_EQ(from, rig.a);
                            applied = snap.entries;
                        }};
    client.request(rig.a);
    rig.sim.run_until(sim::Time::seconds(1.0));

    EXPECT_EQ(responder.served(), 1u);
    EXPECT_EQ(keyframes_forced, 1);
    EXPECT_EQ(client.completed(), 1u);
    EXPECT_EQ(client.outstanding(), 0u);
    EXPECT_GT(client.last_rtt_ms(), 0.0);
    ASSERT_EQ(applied.size(), 2u);
    EXPECT_EQ(applied[0].participant, ParticipantId{1});
    EXPECT_EQ(applied[1].bytes, (std::vector<std::uint8_t>{4, 5}));
}

TEST(ResyncTest, RetriesThroughOutageAndIgnoresStaleNonces) {
    ResyncRig rig;
    ResyncResponder responder{rig.net, rig.demux_a, two_entries};
    int applies = 0;
    ResyncClient client{rig.net, rig.demux_b,
                        [&](const ResyncSnapshot&, net::NodeId) { ++applies; }};
    rig.net.set_link_up(rig.a, rig.b, false);
    client.request(rig.a);
    rig.sim.run_until(sim::Time::ms(300));
    EXPECT_EQ(client.completed(), 0u);
    EXPECT_EQ(client.outstanding(), 1u);
    rig.net.set_link_up(rig.a, rig.b, true);
    rig.sim.run_until(sim::Time::seconds(2.0));
    EXPECT_EQ(client.completed(), 1u);
    EXPECT_EQ(applies, 1);
    EXPECT_EQ(client.abandoned(), 0u);
}

TEST(ResyncTest, GivesUpAfterMaxAttempts) {
    ResyncRig rig;
    ResyncClientParams params;
    params.retry_interval = sim::Time::ms(100);
    params.max_attempts = 3;
    ResyncClient client{rig.net, rig.demux_b,
                        [](const ResyncSnapshot&, net::NodeId) {}, params};
    rig.net.set_link_up(rig.a, rig.b, false);
    client.request(rig.a);
    rig.sim.run_until(sim::Time::seconds(5.0));
    EXPECT_EQ(client.completed(), 0u);
    EXPECT_EQ(client.abandoned(), 1u);
    EXPECT_EQ(client.outstanding(), 0u);
}

// ----------------------------------------------------- node observer (net)

TEST(NodeObserverTest, FiresOnActualTransitionsInRegistrationOrder) {
    sim::Simulator sim{9};
    net::Network net{sim};
    const net::NodeId n = net.add_node("x", net::Region::HongKong);
    std::vector<int> order;
    net.observe_node(n, [&](net::NodeId, bool up) { order.push_back(up ? 1 : 0); });
    net.observe_node(n, [&](net::NodeId, bool up) { order.push_back(up ? 11 : 10); });
    net.set_node_up(n, true);  // already up: no-op
    EXPECT_TRUE(order.empty());
    net.set_node_up(n, false);
    net.set_node_up(n, false);  // unchanged: no-op
    net.set_node_up(n, true);
    EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 11}));
}

// --------------------------------------------- end-to-end crash + restore

core::ClassroomConfig crashy_config(bool checkpoints) {
    core::ClassroomConfig config;
    config.seed = 31;
    config.heartbeat.enabled = true;
    config.heartbeat.interval = sim::Time::ms(50);
    config.heartbeat.timeout = sim::Time::ms(200);
    config.recovery.enabled = true;
    config.recovery.checkpoints = checkpoints;
    config.recovery.resync = checkpoints;
    config.recovery.checkpoint_interval = sim::Time::seconds(1.0);
    return config;
}

TEST(CrashRecoveryIntegrationTest, EdgeRestartRestoresClassroomState) {
    core::MetaverseClassroom classroom{crashy_config(/*checkpoints=*/true)};
    const ParticipantId cwb1 = classroom.add_physical_student(0);
    const ParticipantId cwb2 = classroom.add_physical_student(0);
    classroom.add_physical_student(1);

    session::ContentItem item;
    item.creator = cwb1;
    item.kind = session::ContentKind::Model3d;
    item.title = "turbine-model";
    classroom.class_session().contribute(std::move(item));
    classroom.start();

    auto& edge_gz = classroom.edge_server(1);
    fault::FaultPlan plan{classroom.network()};
    plan.node_outage(edge_gz.node(), sim::Time::seconds(5.0), sim::Time::seconds(2.0));
    plan.arm();

    classroom.run_for(sim::Time::seconds(5.5));
    // Mid-crash: the replicated view at GZ is wiped.
    EXPECT_EQ(edge_gz.remote_participants().size(), 0u);
    EXPECT_EQ(edge_gz.remote_update_count(cwb1), 0u);

    classroom.run_for(sim::Time::seconds(6.5));  // to t=12s

    EXPECT_EQ(edge_gz.restores(), 1u);
    EXPECT_EQ(edge_gz.cold_starts(), 0u);
    EXPECT_GT(edge_gz.last_recovery_gap_ms(), 0.0);
    ASSERT_TRUE(edge_gz.last_restored().has_value());
    const ClassroomCheckpoint& cp = *edge_gz.last_restored();

    // Membership and content restored exactly: rebuild a session from the
    // checkpoint and compare against the live one.
    const session::ClassSession restored =
        session::ClassSession::restore(cp, "restored");
    const auto& live = classroom.class_session();
    ASSERT_EQ(restored.roster().size(), live.roster().size());
    for (std::size_t i = 0; i < live.roster().size(); ++i) {
        EXPECT_EQ(restored.roster()[i].id, live.roster()[i].id);
        EXPECT_EQ(restored.roster()[i].name, live.roster()[i].name);
        EXPECT_EQ(restored.roster()[i].role, live.roster()[i].role);
    }
    ASSERT_EQ(restored.ledger().size(), live.ledger().size());
    EXPECT_EQ(restored.ledger().items()[0].title, "turbine-model");
    EXPECT_DOUBLE_EQ(restored.ledger().credits_of(cwb1),
                     live.ledger().credits_of(cwb1));

    // Replicas reconverged: both CWB students are seated and streaming again.
    EXPECT_EQ(cp.replicas.size(), 2u);
    EXPECT_TRUE(edge_gz.seats().seat_of(cwb1).has_value());
    EXPECT_TRUE(edge_gz.seats().seat_of(cwb2).has_value());
    EXPECT_GT(edge_gz.remote_update_count(cwb1), 1u);
    EXPECT_TRUE(edge_gz.display_remote(cwb1, classroom.simulator().now()).has_value());
    // The resync round trip completed against at least one live peer.
    ASSERT_NE(edge_gz.resync_client(), nullptr);
    EXPECT_GT(edge_gz.resync_client()->completed(), 0u);
}

TEST(CrashRecoveryIntegrationTest, WithoutCheckpointsRestartIsCold) {
    core::MetaverseClassroom classroom{crashy_config(/*checkpoints=*/false)};
    const ParticipantId cwb1 = classroom.add_physical_student(0);
    classroom.add_physical_student(1);
    classroom.start();

    auto& edge_gz = classroom.edge_server(1);
    fault::FaultPlan plan{classroom.network()};
    plan.node_outage(edge_gz.node(), sim::Time::seconds(5.0), sim::Time::seconds(2.0));
    plan.arm();
    classroom.run_for(sim::Time::seconds(12.0));

    EXPECT_EQ(edge_gz.restores(), 0u);
    EXPECT_EQ(edge_gz.cold_starts(), 1u);
    EXPECT_FALSE(edge_gz.last_restored().has_value());
    // The stream still reconverges — via the publishers' periodic keyframes
    // and the heartbeat failback keyframe — just without restored state.
    EXPECT_GT(edge_gz.remote_update_count(cwb1), 0u);
}

// ------------------------------------------------------ overload admission
//
// One rig drives the avatar ingress of either classroom server: a sender
// streams keyframes over a fixed 1 ms link into an EdgeServer or a
// CloudServer with the same per-wire compute cost. The cloud mirrors every
// processed wire to a sink peer, so a tap on its sends sees each processed
// wire as (time, participant, seq). The edge keeps nothing per wire that a
// caller can read except its `edge.<name>.ingest_ms` series (one sample per
// processed wire, in processing order) and the per-participant decode counts.

enum class ServerKind { Edge, Cloud };

constexpr ServerKind kServerKinds[] = {ServerKind::Edge, ServerKind::Cloud};
const sim::Time kLinkLatency = sim::Time::ms(1);

const char* kind_name(ServerKind kind) { return kind == ServerKind::Edge ? "edge" : "cloud"; }

/// Every avatar wire the observed server puts on a link, in send order.
class ForwardTap final : public net::PacketTap {
public:
    struct Sent {
        sim::Time at;
        ParticipantId who;
        std::uint32_t seq;
        sim::Time captured_at;
    };

    explicit ForwardTap(net::NodeId server) : server_(server) {}
    void on_send(const net::Packet& p, net::Priority) override {
        if (p.src != server_ || p.flow != sync::kAvatarFlow) return;
        const auto& w = p.payload.get<sync::AvatarWire>();
        sent.push_back(Sent{p.sent_at, w.participant, w.seq, w.captured_at});
    }

    std::vector<Sent> sent;

private:
    net::NodeId server_;
};

struct OverloadRig {
    sim::Simulator sim{41};
    net::Network net{sim};
    net::NodeId src = net.add_node("src", net::Region::HongKong);
    net::NodeId dst = net.add_node("dst", net::Region::Guangzhou);
    net::NodeId sink = net.add_node("sink", net::Region::Guangzhou);
    avatar::AvatarCodec codec{avatar::CodecBounds{}};
    ForwardTap tap{dst};
    CheckpointStore store;
    std::unique_ptr<edge::EdgeServer> edge;
    std::unique_ptr<cloud::CloudServer> cloud;
    std::map<std::uint32_t, std::uint32_t> seqs;

    /// `process` is the compute charged per inbound wire (the edge's
    /// process_time, the cloud's process_in). With `recovery` enabled the
    /// server checkpoints into the rig's store and reacts to node crashes.
    OverloadRig(ServerKind kind, AdmissionParams admission, sim::Time process,
                RecoveryParams recovery = {}) {
        net.connect(src, dst, net::LinkParams{.latency = kLinkLatency});
        net.set_tap(&tap);
        if (recovery.enabled) recovery.store = &store;
        if (kind == ServerKind::Edge) {
            edge::EdgeServerConfig config;
            config.room = ClassroomId{2};
            config.name = "dst";
            config.process_time = process;
            config.admission = admission;
            config.recovery = recovery;
            edge = std::make_unique<edge::EdgeServer>(net, dst, std::move(config),
                                                      edge::SeatMap::grid(6, 6));
            edge->start();
        } else {
            cloud::CloudServerConfig config;
            config.room = ClassroomId{2};
            config.name = "dst";
            config.process_in = process;
            config.process_out = sim::Time::zero();
            config.mirror_all_streams = true;
            config.admission = admission;
            config.recovery = recovery;
            cloud = std::make_unique<cloud::CloudServer>(net, dst, std::move(config));
            net.connect(dst, sink, net::LinkParams{.latency = kLinkLatency});
            cloud->add_peer(sink);
            cloud->start();
        }
    }

    void send_update(std::uint32_t id) {
        const double t = sim.now().to_seconds();
        avatar::AvatarState s;
        s.participant = ParticipantId{id};
        s.root.pose.position = {std::cos(t + id), 0.0, 2.0 + std::sin(t + id)};
        s.captured_at = sim.now();
        sync::AvatarWire wire;
        wire.participant = s.participant;
        wire.source_room = ClassroomId{1};
        wire.keyframe = true;
        wire.bytes = codec.encode_full(s);
        wire.captured_at = s.captured_at;
        wire.seq = ++seqs[id];
        net.send(src, dst, wire.bytes.size() + 32, std::string{sync::kAvatarFlow},
                 std::move(wire));
    }

    /// Wires of `who` the server has processed so far.
    [[nodiscard]] std::uint64_t processed(std::uint32_t who) const {
        if (edge) return edge->remote_update_count(ParticipantId{who});
        return static_cast<std::uint64_t>(
            std::count_if(tap.sent.begin(), tap.sent.end(),
                          [who](const ForwardTap::Sent& s) { return s.who.value() == who; }));
    }
    /// Processing time minus send time of every processed wire, in order.
    [[nodiscard]] std::vector<double> delays_ms() const {
        if (edge) {
            const auto samples = net.metrics().series("edge.dst.ingest_ms").samples();
            return {samples.begin(), samples.end()};
        }
        std::vector<double> out;
        for (const ForwardTap::Sent& s : tap.sent) out.push_back((s.at - s.captured_at).to_ms());
        return out;
    }
    /// Digest of every processed wire: (time, participant, seq) from the
    /// cloud's sends; the ingest-delay stream plus per-participant decode
    /// counts for the edge.
    [[nodiscard]] std::uint64_t processed_digest() const {
        common::Hash64 h;
        if (edge) {
            for (const double d : delays_ms()) h.f64(d);
            for (const ParticipantId who : edge->remote_participants())
                h.u32(who.value()).u64(edge->remote_update_count(who));
        } else {
            for (const ForwardTap::Sent& s : tap.sent)
                h.i64(s.at.nanos()).u32(s.who.value()).u32(s.seq);
        }
        return h.digest();
    }

    [[nodiscard]] std::uint64_t arrivals() const {
        return edge ? edge->avatar_packets_in() : cloud->messages_in();
    }
    [[nodiscard]] std::uint64_t shed_streams() const {
        return edge ? edge->shed_streams() : cloud->shed_streams();
    }
    [[nodiscard]] std::uint64_t queue_dropped() const {
        return edge ? edge->queue_dropped() : cloud->queue_dropped();
    }
    [[nodiscard]] std::size_t ingress_depth() const {
        return edge ? edge->ingress_depth() : cloud->ingress_depth();
    }
    [[nodiscard]] const AdmissionGate& admission_gate() const {
        return edge ? edge->admission_gate() : cloud->admission_gate();
    }
    [[nodiscard]] std::uint64_t state_digest() const {
        return edge ? edge->state_digest() : cloud->state_digest();
    }
};

AdmissionParams overload_admission() {
    AdmissionParams admission;
    admission.enabled = true;
    admission.queue_capacity = 32;
    admission.shed_enter_depth = 24;
    admission.shed_exit_depth = 4;
    admission.hold = sim::Time::ms(200);
    return admission;
}

const sim::Time kOverloadProcess = sim::Time::ms(2);  // 500 wires/s service capacity

/// Six streams at 60 Hz from the start (within capacity), then twelve late
/// joiners at 60 Hz from 3 s (past it).
void drive_late_joiners(OverloadRig& rig) {
    const sim::Time tick = sim::Time::us(16667);
    for (std::uint32_t i = 0; i < 6; ++i) {
        rig.sim.schedule_every(tick, sim::Time::ms(1 + i),
                               [&rig, i] { rig.send_update(100 + i); });
    }
    for (std::uint32_t i = 0; i < 12; ++i) {
        rig.sim.schedule_at(sim::Time::seconds(3.0) + sim::Time::ms(100 * i),
                            [&rig, i, tick] {
                                rig.send_update(200 + i);
                                rig.sim.schedule_every(
                                    tick, [&rig, i] { rig.send_update(200 + i); });
                            });
    }
}

TEST(OverloadAdmissionTest, ShedsLateJoinersKeepsAdmittedFlowing) {
    for (const ServerKind kind : kServerKinds) {
        SCOPED_TRACE(kind_name(kind));
        OverloadRig rig{kind, overload_admission(), kOverloadProcess};
        drive_late_joiners(rig);
        rig.sim.run_until(sim::Time::seconds(5.0));
        const std::uint64_t mid_count = rig.processed(100);
        rig.sim.run_until(sim::Time::seconds(8.0));

        EXPECT_GT(rig.shed_streams(), 0u);
        EXPECT_LE(rig.admission_gate().transitions(), 2u);  // no flapping
        EXPECT_LE(rig.ingress_depth(), 32u);
        // Admitted (pre-overload) streams keep being processed.
        EXPECT_GT(rig.processed(100), mid_count);
    }
}

TEST(OverloadAdmissionTest, BoundedQueueDropsOldestAtCapacity) {
    // Bursts into the drop-oldest ring: one far past a capacity the ring
    // starts at, one that grows the ring twice before it drops, and one that
    // wraps the ring around and grows it while wrapped, dropping nothing.
    struct Burst {
        sim::Time at;
        std::uint32_t wires;
    };
    struct Case {
        std::size_t capacity;
        std::vector<Burst> bursts;
        std::uint64_t dropped;
    };
    const Case cases[] = {
        {8, {{sim::Time::ms(10), 40}}, 32},
        {20, {{sim::Time::ms(10), 40}}, 20},
        {32, {{sim::Time::ms(10), 6}, {sim::Time::us(14500), 10}}, 0},
    };
    for (const ServerKind kind : kServerKinds) {
        for (const Case& c : cases) {
            SCOPED_TRACE(std::string{kind_name(kind)} + " capacity " +
                         std::to_string(c.capacity));
            AdmissionParams admission = overload_admission();
            admission.queue_capacity = c.capacity;
            admission.shed_enter_depth = 1000;  // never shed: isolate the queue
            admission.shed_exit_depth = 0;
            OverloadRig rig{kind, admission, kOverloadProcess};
            std::uint32_t next = 100;  // participant ids, one wire each
            for (const Burst& burst : c.bursts) {
                rig.sim.schedule_at(burst.at, [&rig, first = next, n = burst.wires] {
                    for (std::uint32_t i = 0; i < n; ++i) rig.send_update(first + i);
                });
                next += burst.wires;
            }
            rig.sim.run_until(sim::Time::seconds(2.0));
            EXPECT_EQ(rig.queue_dropped(), c.dropped);
            EXPECT_EQ(rig.ingress_depth(), 0u);  // fully drained afterwards
            EXPECT_EQ(rig.shed_streams(), 0u);
            // The newest wires survive, each once, in arrival order.
            const std::uint32_t first_kept = 100 + static_cast<std::uint32_t>(c.dropped);
            for (std::uint32_t who = 100; who < next; ++who)
                EXPECT_EQ(rig.processed(who), who < first_kept ? 0u : 1u) << who;
            if (rig.cloud) {
                ASSERT_EQ(rig.tap.sent.size(), next - first_kept);
                for (std::size_t i = 0; i < rig.tap.sent.size(); ++i)
                    EXPECT_EQ(rig.tap.sent[i].who.value(), first_kept + i);
            }
        }
    }
}

TEST(OverloadAdmissionTest, DisabledAdmissionUsesDirectPath) {
    for (const ServerKind kind : kServerKinds) {
        SCOPED_TRACE(kind_name(kind));
        OverloadRig rig{kind, AdmissionParams{}, sim::Time::us(30)};
        const sim::Time tick = sim::Time::us(16667);
        rig.sim.schedule_every(tick, [&rig] { rig.send_update(100); });
        rig.sim.run_until(sim::Time::seconds(2.0));
        EXPECT_GT(rig.processed(100), 0u);
        EXPECT_EQ(rig.queue_dropped(), 0u);
        EXPECT_EQ(rig.shed_streams(), 0u);
        EXPECT_EQ(rig.ingress_depth(), 0u);
    }
}

TEST(OverloadAdmissionTest, ShedWireCostsNoCompute) {
    for (const ServerKind kind : kServerKinds) {
        SCOPED_TRACE(kind_name(kind));
        // No drops in this case: a dropped wire keeps the compute it was
        // charged, and its drain would serve the next queued wire early.
        AdmissionParams admission = overload_admission();
        admission.queue_capacity = 1000;
        OverloadRig rig{kind, admission, kOverloadProcess};
        // Four admitted streams at 1000 wires/s for 390 ms: the queue stays
        // past the enter depth long enough for the gate to start shedding.
        for (int ms = 10; ms <= 400; ++ms) {
            rig.sim.schedule_at(sim::Time::ms(ms), [&rig, ms] {
                rig.send_update(100 + static_cast<std::uint32_t>(ms % 4));
            });
        }
        rig.sim.run_until(sim::Time::ms(899));
        ASSERT_TRUE(rig.admission_gate().shedding());
        ASSERT_EQ(rig.ingress_depth(), 0u);  // drained; the gate holds its state
        ASSERT_EQ(rig.queue_dropped(), 0u);
        const std::uint64_t shed_before = rig.shed_streams();
        const std::size_t processed_before = rig.delays_ms().size();

        // A burst of unseen streams, then one wire of an admitted stream.
        rig.sim.schedule_at(sim::Time::ms(900), [&rig] {
            for (std::uint32_t i = 0; i < 20; ++i) rig.send_update(300 + i);
            rig.send_update(100);
        });
        rig.sim.run_until(sim::Time::seconds(1.5));
        EXPECT_EQ(rig.shed_streams(), shed_before + 20);
        const std::vector<double> delays = rig.delays_ms();
        ASSERT_EQ(delays.size(), processed_before + 1);
        // Processed at arrival + its own compute: the shed burst cost none.
        EXPECT_DOUBLE_EQ(delays.back(), (kLinkLatency + kOverloadProcess).to_ms());
    }
}

// ------------------------------------------- a crash drops interrupted work

TEST(CrashDropsChargedWorkTest, NothingChargedBeforeACrashRunsAfterIt) {
    for (const ServerKind kind : kServerKinds) {
        for (const bool admission_on : {false, true}) {
            SCOPED_TRACE(std::string{kind_name(kind)} +
                         (admission_on ? " admission on" : " admission off"));
            AdmissionParams admission;
            admission.enabled = admission_on;
            RecoveryParams recovery;
            recovery.enabled = true;
            OverloadRig rig{kind, admission, sim::Time::ms(5), recovery};
            // Ten streams arrive together at 11 ms; their compute is charged
            // back to back and would complete at 16, 21, ..., 61 ms. The node
            // crashes after the first is processed and is back at 30 ms,
            // while the rest are still charged; one more wire follows.
            rig.sim.schedule_at(sim::Time::ms(10), [&rig] {
                for (std::uint32_t i = 0; i < 10; ++i) rig.send_update(100 + i);
            });
            rig.sim.schedule_at(sim::Time::ms(18), [&rig] { rig.net.set_node_up(rig.dst, false); });
            rig.sim.schedule_at(sim::Time::ms(30), [&rig] { rig.net.set_node_up(rig.dst, true); });
            rig.sim.schedule_at(sim::Time::ms(32), [&rig] { rig.send_update(200); });

            rig.sim.run_until(sim::Time::ms(29));  // down
            EXPECT_EQ(rig.delays_ms(), std::vector<double>{6.0});
            EXPECT_EQ(rig.ingress_depth(), 0u);  // the crash emptied the queue
            if (rig.edge) {
                EXPECT_TRUE(rig.edge->remote_participants().empty());
            } else {
                EXPECT_EQ(rig.cloud->messages_out(), 1u);
            }

            rig.sim.run_until(sim::Time::seconds(1.0));
            // Only the post-restart wire is processed, at its own charged
            // time: behind the 61 ms compute backlog (a crash keeps the
            // compute clock), plus 5 ms.
            EXPECT_EQ(rig.delays_ms(), (std::vector<double>{6.0, 34.0}));
            if (rig.edge) {
                const auto remotes = rig.edge->remote_participants();
                EXPECT_EQ(std::vector<ParticipantId>(remotes.begin(), remotes.end()),
                          std::vector<ParticipantId>{ParticipantId{200}});
            } else {
                EXPECT_EQ(rig.cloud->messages_out(), 2u);
            }
            EXPECT_EQ(rig.ingress_depth(), 0u);
        }
    }
}

// --------------------------------------------------------- ingress golden
//
// Pins the avatar ingress of both servers wire by wire under overload. The
// constants were taken from a run of the code before the two servers shared
// one ingress; any change to which wires are processed, when, or in which
// order, moves them.

struct IngressRun {
    std::uint64_t processed_digest{0};
    std::size_t processed{0};
    std::uint64_t arrivals{0};
    std::uint64_t shed{0};
    std::uint64_t dropped{0};
    std::size_t depth{0};
    std::uint64_t transitions{0};
    std::uint64_t state_digest{0};
};

IngressRun run_ingress(ServerKind kind, AdmissionParams admission) {
    OverloadRig rig{kind, admission, kOverloadProcess};
    drive_late_joiners(rig);
    rig.sim.run_until(sim::Time::seconds(6.0));
    return IngressRun{rig.processed_digest(), rig.delays_ms().size(), rig.arrivals(),
                      rig.shed_streams(),     rig.queue_dropped(),    rig.ingress_depth(),
                      rig.admission_gate().transitions(),             rig.state_digest()};
}

TEST(IngressGoldenTest, EdgeShedsAndDrops) {
    const IngressRun r = run_ingress(ServerKind::Edge, overload_admission());
    EXPECT_EQ(r.processed_digest, 560586927266171441ULL);
    EXPECT_EQ(r.processed, 2569u);
    EXPECT_EQ(r.arrivals, 3924u);
    EXPECT_EQ(r.shed, 630u);
    EXPECT_EQ(r.dropped, 698u);
    EXPECT_EQ(r.depth, 27u);
    EXPECT_EQ(r.transitions, 1u);
    EXPECT_EQ(r.state_digest, 16557122995280238183ULL);
}

TEST(IngressGoldenTest, CloudDropsOnly) {
    AdmissionParams admission = overload_admission();
    admission.shed_enter_depth = admission.queue_capacity + 1;  // never sheds
    const IngressRun r = run_ingress(ServerKind::Cloud, admission);
    EXPECT_EQ(r.processed_digest, 3211552090496657027ULL);
    EXPECT_EQ(r.processed, 2569u);
    EXPECT_EQ(r.arrivals, 3924u);
    EXPECT_EQ(r.shed, 0u);
    EXPECT_EQ(r.dropped, 1328u);
    EXPECT_EQ(r.depth, 27u);
    EXPECT_EQ(r.transitions, 0u);
    EXPECT_EQ(r.state_digest, 14588391123372390660ULL);
}

}  // namespace
}  // namespace mvc::recovery
