#include "unit_costs.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>

#include "avatar/codec.hpp"
#include "cloud/relay.hpp"
#include "cloud/vr_client.hpp"
#include "cloud/vr_layout.hpp"
#include "core/avatar_pool.hpp"
#include "net/channel.hpp"
#include "net/fec.hpp"
#include "net/network.hpp"
#include "net/real_udp.hpp"
#include "net/transport.hpp"
#include "net/wire_format.hpp"
#include "perfbench.hpp"
#include "probes.hpp"
#include "recovery/checkpoint.hpp"
#include "sensing/fusion.hpp"
#include "sim/simulator.hpp"
#include "sync/aggregator.hpp"
#include "sync/batcher.hpp"
#include "sync/interest.hpp"

namespace perfbench::unit {

namespace cloud = mvc::cloud;
namespace core = mvc::core;
namespace net = mvc::net;
namespace sim = mvc::sim;
namespace sync = mvc::sync;
using mvc::ClassroomId;
using mvc::EntityId;
using mvc::ParticipantId;
using mvc::math::Vec3;

namespace {

constexpr int kBatches = 7;

/// Median over kBatches of (batch wall time / ops), in ns. `batch` runs one
/// batch and returns how many operations it performed.
template <class F>
double per_op_ns(F&& batch) {
    std::vector<double> per_op;
    per_op.reserve(kBatches);
    batch();  // warm caches and lazy set-up
    for (int i = 0; i < kBatches; ++i) {
        const std::int64_t t0 = wall_ns();
        const double ops = static_cast<double>(batch());
        const auto dt = static_cast<double>(wall_ns() - t0);
        if (ops > 0.0) per_op.push_back(dt / ops);
    }
    return median(per_op);
}

// CampusWorld's building layout (campus.cpp): rooms on a square grid at a
// 14 m pitch, seats on a square grid at 1.2 m spacing inside each room.
std::size_t grid_dim(std::size_t count) {
    std::size_t d = 1;
    while (d * d < count) ++d;
    return d;
}

Vec3 room_center(std::size_t room, std::size_t rooms) {
    const std::size_t dim = grid_dim(rooms);
    return {static_cast<double>(room % dim) * 14.0, 0.0,
            static_cast<double>(room / dim) * 14.0};
}

Vec3 seat_anchor(std::size_t room, std::size_t rooms, std::size_t seat, std::size_t seats) {
    const std::size_t dim = grid_dim(seats);
    const double half = 0.5 * static_cast<double>(dim - 1) * 1.2;
    const Vec3 c = room_center(room, rooms);
    return {c.x - half + static_cast<double>(seat % dim) * 1.2, 0.0,
            c.z - half + static_cast<double>(seat / dim) * 1.2};
}

sync::AvatarWire wire(std::uint32_t who, std::vector<std::uint8_t> bytes, sim::Time at) {
    sync::AvatarWire w;
    w.participant = ParticipantId{who};
    w.source_room = ClassroomId{1};
    w.bytes = std::move(bytes);
    w.captured_at = at;
    return w;
}

mvc::avatar::AvatarState seated_state(std::uint32_t who, const Vec3& seat, double t) {
    mvc::avatar::AvatarState s;
    s.participant = ParticipantId{who};
    const double sway = 0.06 * std::sin(1.3 * t + who);
    s.root.pose = {seat + Vec3{sway, 1.2, 0.4 * sway},
                   mvc::math::Quat::from_yaw_pitch_roll(0.3 * std::sin(0.7 * t + who), 0.05, 0.0)};
    s.root.linear_velocity = {0.08 * std::cos(1.3 * t + who), 0.0, 0.0};
    s.body.head = {s.root.pose.position + Vec3{0, 0.65, 0}, s.root.pose.orientation};
    s.body.left_hand = {s.root.pose.position + Vec3{-0.3, 0.2, 0.2}, s.root.pose.orientation};
    s.body.right_hand = {s.root.pose.position + Vec3{0.3, 0.2 + 0.1 * sway, 0.2},
                         s.root.pose.orientation};
    s.expression.assign(mvc::avatar::kExpressionChannels, 0.2 + 0.1 * std::sin(t + who));
    return s;
}

}  // namespace

CampusCosts campus(const core::CampusConfig& config) {
    const std::size_t rooms = config.classrooms_per_building;
    const std::size_t seats = config.avatars_per_classroom;
    const std::size_t n = rooms * seats;
    const std::uint64_t motion_seed = config.seed ^ 0xC0FFEEULL;  // building 0
    const double dt = 1.0 / config.tick_rate_hz;

    core::AvatarPool pool;
    pool.reserve(n);
    std::vector<Vec3> anchors;
    anchors.reserve(n);
    for (std::size_t r = 0; r < rooms; ++r) {
        for (std::size_t s = 0; s < seats; ++s) {
            const Vec3 a = seat_anchor(r, rooms, s, seats);
            pool.add(EntityId{static_cast<std::uint32_t>(r * seats + s)}, a);
            anchors.push_back(a);
        }
    }
    std::vector<Vec3> last_sent(n, Vec3::zero());
    sync::InterestGrid grid{config.cell_size_m};
    const double thr2 = config.dirty_threshold_m * config.dirty_threshold_m;
    std::vector<sync::AvatarWire> dirty_wires;
    std::vector<Vec3> dirty_pos;
    double t = 0.0;

    CampusCosts out;
    std::int64_t sweep_ns = 0;
    std::int64_t grid_ns = 0;
    std::size_t ticks = 0;
    // Sweep and grid in the order CampusWorld::tick runs them: motion, grid
    // update + rebuild, dirty sweep with record encode.
    const auto tick = [&] {
        t += dt;
        const auto ids = pool.ids();
        const auto pos = pool.positions();
        const auto vel = pool.velocities();
        const auto seq = pool.seqs();
        const auto dirty = pool.dirty();
        const std::int64_t t0 = wall_ns();
        for (std::size_t i = 0; i < n; ++i) {
            const auto m = config.motion.at(motion_seed, i, t);
            pos[i] = anchors[i] + m.offset;
            vel[i] = m.velocity;
        }
        const std::int64_t t1 = wall_ns();
        for (std::size_t i = 0; i < n; ++i) grid.update(ids[i], pos[i]);
        grid.rebuild();
        const std::int64_t t2 = wall_ns();
        dirty_wires.clear();
        dirty_pos.clear();
        for (std::size_t i = 0; i < n; ++i) {
            const bool moved = (pos[i] - last_sent[i]).norm_sq() > thr2;
            if (dirty[i] == 0 && !moved) continue;
            ++seq[i];
            last_sent[i] = pos[i];
            std::vector<std::uint8_t> bytes;
            bytes.reserve(core::AvatarPool::kRecordBytes);
            pool.encode_record(static_cast<std::uint32_t>(i), bytes);
            sync::AvatarWire w = wire(ids[i].value(), std::move(bytes), sim::Time::seconds(t));
            w.seq = seq[i];
            dirty_wires.push_back(std::move(w));
            dirty_pos.push_back(pos[i]);
        }
        pool.clear_dirty();
        const std::int64_t t3 = wall_ns();
        sweep_ns += (t1 - t0) + (t3 - t2);
        grid_ns += t2 - t1;
        ++ticks;
    };
    tick();  // first tick ships every avatar; steady state starts after it
    tick();
    sweep_ns = grid_ns = 0;
    ticks = 0;
    for (int i = 0; i < 20; ++i) tick();
    out.pool_sweep_us = static_cast<double>(sweep_ns) * 1e-3 / static_cast<double>(ticks);
    out.grid_rebuild_us = static_cast<double>(grid_ns) * 1e-3 / static_cast<double>(ticks);

    std::vector<Vec3> viewers;
    for (std::size_t v = 0; v < config.viewers_per_building; ++v)
        viewers.push_back(room_center(v % rooms, rooms) + Vec3{0.0, 1.6, 0.0});
    std::vector<EntityId> hits;
    out.grid_query_ns = per_op_ns([&] {
        for (int rep = 0; rep < 8; ++rep)
            for (const Vec3& v : viewers)
                grid.query_radius_into(v, config.interest.max_range(), hits);
        return 8 * viewers.size();
    });

    // One aggregation interval: enqueue the tick's dirty deltas, flush to the
    // building's viewers (batches go out through the batcher's sends).
    sim::Simulator simulator{config.seed};
    net::Network network{simulator};
    const net::NodeId gw = network.add_node("gw", net::Region::HongKong);
    sync::CellDeltaAggregator aggregator{network, gw, config.aggregate_interval,
                                         config.cell_size_m, config.interest};
    for (std::size_t v = 0; v < viewers.size(); ++v) {
        const net::NodeId node = network.add_node("viewer" + std::to_string(v),
                                                  net::Region::HongKong);
        network.connect(node, gw, net::LinkParams{.latency = sim::Time::ms(1)});
        network.set_handler(node, [](net::Packet&&) {});
        aggregator.add_viewer(node, ParticipantId{0xF0000000u + static_cast<std::uint32_t>(v)},
                              viewers[v]);
    }
    std::vector<double> flush_us;
    for (int rep = 0; rep < 12; ++rep) {
        tick();
        const std::int64_t t0 = wall_ns();
        for (std::size_t i = 0; i < dirty_wires.size(); ++i)
            aggregator.enqueue(dirty_pos[i], std::move(dirty_wires[i]));
        aggregator.flush();
        flush_us.push_back(static_cast<double>(wall_ns() - t0) * 1e-3);
        simulator.run_until(simulator.now() + config.aggregate_interval);
    }
    out.aggregator_flush_us = median(flush_us);
    return out;
}

CohortCosts cohort(std::size_t clients, double seconds, std::uint64_t seed, SpanLog& log) {
    net::RealUdpBackend udp{net::RealUdpBackend::Options{.seed = seed}};
    TimedBackend relay_net{udp, log, SpanKind::RelayHandler};
    TimedBackend client_net{udp, log};
    const net::NodeId relay_node = udp.add_node("relay", net::Region::Seoul);
    relay_net.mark(relay_node, SpanKind::RelayHandler);
    cloud::RelayServer relay{relay_net, relay_node, cloud::RelayConfig{}};
    std::vector<std::unique_ptr<cloud::VrClient>> vr;
    const cloud::VrLayout layout;
    for (std::size_t i = 0; i < clients; ++i) {
        const ParticipantId who{static_cast<std::uint32_t>(i + 1)};
        const net::NodeId node = udp.add_node("vr-" + std::to_string(i), net::Region::Seoul);
        cloud::VrClientConfig vc;
        vc.name = "vr-" + std::to_string(i);
        vc.room = ClassroomId{3};
        vc.latency_metric = "vr.e2e_ms";
        vr.push_back(std::make_unique<cloud::VrClient>(client_net, node, who, vc));
        const mvc::math::Pose seat = layout.seat_pose(i);
        relay.upsert_entity(who, seat.position);
        relay.attach_client(node, who, seat.position);
        vr.back()->join(relay_node, seat);
    }

    std::vector<double> turn_us;
    std::vector<double> turn_dgrams;
    sim::WallClock& clock = udp.wall_clock();
    const sim::Time end = clock.now() + sim::Time::seconds(seconds);
    while (clock.now() < end) {
        const std::int64_t t0 = wall_ns();
        const std::size_t n = udp.poll_once(std::min(end - clock.now(), sim::Time::ms(10)));
        const std::int64_t t1 = wall_ns();
        if (n == 0) continue;
        turn_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        turn_dgrams.push_back(static_cast<double>(n));
        log.record(SpanKind::PollTurn, t0, t1, 0);
    }
    // Stop publishing, then drain what is still in flight.
    for (auto& c : vr) c->leave();
    for (int idle = 0; idle < 5;) idle = udp.poll_once(sim::Time::ms(20)) == 0 ? idle + 1 : 0;

    CohortCosts out;
    std::uint64_t applied = 0;
    for (const auto& c : vr) applied += c->updates_received();
    const auto& r = log.stat(SpanKind::RelayHandler);
    const auto& c = log.stat(SpanKind::ClientHandler);
    out.relay_us_p50 = self_us_quantile(log, SpanKind::RelayHandler, 0.5);
    out.relay_us_p99 = self_us_quantile(log, SpanKind::RelayHandler, 0.99);
    out.client_us_p50 = self_us_quantile(log, SpanKind::ClientHandler, 0.5);
    const auto per = [](double ns, std::uint64_t n) {
        return ns / static_cast<double>(std::max<std::uint64_t>(n, 1));
    };
    out.relay_ns_per_copy = per(r.self_ns, relay.messages_out());
    out.client_ns_per_update = per(c.self_ns, applied);
    out.poll_turn_us_p50 = quantile(turn_us, 0.5);
    out.poll_turn_us_p99 = quantile(turn_us, 0.99);
    out.dgrams_per_turn = median(turn_dgrams);
    out.wire_errors = udp.decode_errors() + udp.metrics().counter("net.send_error") +
                      udp.metrics().counter("net.wire_unencodable");
    out.applied = applied;
    return out;
}

double sim_event_ns(std::size_t depth, std::uint64_t seed) {
    sim::Simulator simulator{seed};
    sim::Rng rng{seed};
    std::uint64_t fired = 0;
    // Hold model: every event re-arms itself after a random delay, so the
    // queue stays at `depth` pending events throughout.
    struct Hold {
        sim::Simulator* s;
        sim::Rng* rng;
        std::uint64_t* fired;
        void operator()() const {
            ++*fired;
            s->schedule_after(sim::Time::us(1 + rng->uniform_int(0, 20000)), *this);
        }
    };
    const Hold hold{&simulator, &rng, &fired};
    for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i)
        simulator.schedule_after(sim::Time::us(rng.uniform_int(0, 20000)), hold);
    return per_op_ns([&] {
        const std::uint64_t before = fired;
        simulator.run_until(simulator.now() + sim::Time::ms(20));
        return fired - before;
    });
}

double net_send_ns(std::size_t payload_bytes) {
    sim::Simulator simulator{7};
    net::Network network{simulator};
    const net::NodeId a = network.add_node("a", net::Region::HongKong);
    const net::NodeId b = network.add_node("b", net::Region::HongKong);
    network.connect(a, b, net::LinkParams{.latency = sim::Time::ms(1)});
    std::uint64_t delivered = 0;
    network.set_handler(b, [&](net::Packet&& p) {
        delivered += p.payload.take<sync::AvatarWire>().bytes.size() > 0 ? 1 : 0;
    });
    net::Channel tx = network.open_channel(
        {.src = a, .dst = b, .flow = std::string{sync::kAvatarFlow}});
    const std::vector<std::uint8_t> body(payload_bytes, 0x5a);
    return per_op_ns([&] {
        constexpr std::size_t kSends = 2000;
        for (std::size_t i = 0; i < kSends; ++i) {
            sync::AvatarWire w = wire(1, body, simulator.now());
            tx.send(w.wire_bytes(), std::move(w));
        }
        simulator.run_until(simulator.now() + sim::Time::ms(50));
        return kSends;
    });
}

double batcher_flush_us(std::size_t destinations, std::size_t per_destination,
                        std::size_t payload_bytes) {
    sim::Simulator simulator{11};
    net::Network network{simulator};
    const net::NodeId src = network.add_node("src", net::Region::HongKong);
    std::vector<net::NodeId> dsts;
    for (std::size_t d = 0; d < std::max<std::size_t>(destinations, 1); ++d) {
        const net::NodeId node = network.add_node("d" + std::to_string(d), net::Region::Seoul);
        network.connect(src, node, net::LinkParams{.latency = sim::Time::ms(5)});
        network.set_handler(node, [](net::Packet&&) {});
        dsts.push_back(node);
    }
    sync::WireBatcher batcher{network, src, sim::Time::ms(20)};
    const std::vector<std::uint8_t> body(payload_bytes, 0x33);
    std::vector<double> flush_us;
    for (int rep = 0; rep < 41; ++rep) {
        for (const net::NodeId d : dsts) {
            for (std::size_t i = 0; i < per_destination; ++i) {
                batcher.enqueue(d, wire(static_cast<std::uint32_t>(i + 1), body, simulator.now()));
            }
        }
        const std::int64_t t0 = wall_ns();
        batcher.flush();
        if (rep > 0) flush_us.push_back(static_cast<double>(wall_ns() - t0) * 1e-3);
        simulator.run_until(simulator.now() + sim::Time::ms(20));
    }
    return median(flush_us);
}

FrameCosts frame(const std::vector<net::Packet>& samples) {
    FrameCosts out;
    if (samples.empty()) return out;
    std::vector<std::vector<std::byte>> frames;
    for (const net::Packet& p : samples)
        if (auto f = net::encode_frame(p, net::Priority::Realtime)) frames.push_back(std::move(*f));
    std::size_t sink = 0;
    out.encode_ns = per_op_ns([&] {
        for (const net::Packet& p : samples)
            if (auto f = net::encode_frame(p, net::Priority::Realtime)) sink += f->size();
        return samples.size();
    });
    out.decode_ns = per_op_ns([&] {
        for (const auto& f : frames)
            if (auto d = net::decode_frame(f)) sink += d->packet.size_bytes;
        return frames.size();
    });
    if (sink == 0) out.decode_ns = 0.0;
    return out;
}

AvatarCosts avatar(std::uint64_t seed) {
    const mvc::avatar::AvatarCodec codec;
    constexpr std::size_t kAvatars = 64;
    std::vector<mvc::avatar::AvatarState> ref;
    std::vector<mvc::avatar::AvatarState> cur;
    std::vector<std::vector<std::uint8_t>> deltas;
    sim::Rng rng{seed};
    for (std::size_t i = 0; i < kAvatars; ++i) {
        const Vec3 seat{rng.uniform(-6.0, 6.0), 0.0, rng.uniform(0.0, 8.0)};
        const double t = rng.uniform(0.0, 60.0);
        ref.push_back(seated_state(static_cast<std::uint32_t>(i + 1), seat, t));
        cur.push_back(seated_state(static_cast<std::uint32_t>(i + 1), seat, t + 0.05));
        deltas.push_back(codec.encode_delta(ref.back(), cur.back()));
    }
    AvatarCosts out;
    std::size_t sink = 0;
    out.encode_ns = per_op_ns([&] {
        for (std::size_t i = 0; i < kAvatars; ++i) sink += codec.encode_delta(ref[i], cur[i]).size();
        return kAvatars;
    });
    out.decode_ns = per_op_ns([&] {
        for (std::size_t i = 0; i < kAvatars; ++i)
            sink += codec.decode_delta(ref[i], deltas[i]).expression.size();
        return kAvatars;
    });
    if (sink == 0) out.encode_ns = 0.0;
    return out;
}

double fusion_us(std::size_t participants, std::uint64_t seed) {
    mvc::sensing::PoseFusion fusion;
    sim::Rng rng{seed};
    std::vector<Vec3> seats;
    for (std::size_t i = 0; i < participants; ++i)
        seats.push_back({rng.uniform(-6.0, 6.0), 1.2, rng.uniform(0.0, 8.0)});
    mvc::sensing::SensorSample s;
    s.expression.assign(16, 0.3);
    std::int64_t t_us = 0;
    return 1e-3 * per_op_ns([&] {
        for (int step = 0; step < 20; ++step) {
            t_us += 11'000;
            for (std::size_t i = 0; i < participants; ++i) {
                s.participant = ParticipantId{static_cast<std::uint32_t>(i + 1)};
                s.captured_at = sim::Time::us(t_us);
                // Alternate headset (with orientation) and room-camera samples.
                s.source = (step + i) % 3 == 0 ? mvc::sensing::SensorSource::RoomCamera
                                                : mvc::sensing::SensorSource::Headset;
                s.has_orientation = s.source == mvc::sensing::SensorSource::Headset;
                s.pose.position = seats[i] + Vec3{0.05 * std::sin(1e-6 * t_us + i), 0.0, 0.0};
                fusion.observe(s);
            }
        }
        return 20 * participants;
    });
}

double fec_encode_us(std::size_t data_shards, std::size_t parity_shards,
                     std::size_t shard_bytes) {
    const net::ReedSolomon rs{data_shards, parity_shards};
    std::vector<std::vector<std::uint8_t>> data(data_shards,
                                                std::vector<std::uint8_t>(shard_bytes));
    for (std::size_t i = 0; i < data_shards; ++i)
        for (std::size_t j = 0; j < shard_bytes; ++j)
            data[i][j] = static_cast<std::uint8_t>(i * 31 + j * 7);
    std::size_t sink = 0;
    const double ns = per_op_ns([&] {
        for (int rep = 0; rep < 16; ++rep) sink += rs.encode(data).size();
        return 16;
    });
    return sink == 0 ? 0.0 : ns * 1e-3;
}

double checkpoint_encode_us(const std::vector<std::vector<std::uint8_t>>& encoded) {
    std::vector<mvc::recovery::ClassroomCheckpoint> cps;
    for (const auto& bytes : encoded) cps.push_back(mvc::recovery::decode_checkpoint(bytes));
    if (cps.empty()) return 0.0;
    std::size_t sink = 0;
    const double ns = per_op_ns([&] {
        for (int rep = 0; rep < 8; ++rep)
            for (const auto& cp : cps) sink += mvc::recovery::encode_checkpoint(cp).size();
        return 8 * cps.size();
    });
    return sink == 0 ? 0.0 : ns * 1e-3;
}

}  // namespace perfbench::unit
