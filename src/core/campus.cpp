#include "core/campus.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "net/packet.hpp"

namespace mvc::core {

namespace {

/// Smallest grid dimension holding `count` items.
std::size_t grid_dim(std::size_t count) {
    std::size_t d = 1;
    while (d * d < count) ++d;
    return d;
}

/// Classroom pitch and seat spacing (metres): rooms far enough apart that
/// interest tiers differentiate them, seats dense enough that near tiers
/// stay populated.
constexpr double kClassroomPitchM = 14.0;
constexpr double kSeatSpacingM = 1.2;

math::Vec3 classroom_center(std::size_t room, std::size_t rooms_per_building) {
    const std::size_t dim = grid_dim(rooms_per_building);
    return {static_cast<double>(room % dim) * kClassroomPitchM, 0.0,
            static_cast<double>(room / dim) * kClassroomPitchM};
}

math::Vec3 seat_anchor(std::size_t room, std::size_t rooms_per_building,
                       std::size_t seat, std::size_t seats_per_room) {
    const std::size_t dim = grid_dim(seats_per_room);
    const double half = 0.5 * static_cast<double>(dim - 1) * kSeatSpacingM;
    const math::Vec3 center = classroom_center(room, rooms_per_building);
    return {center.x - half + static_cast<double>(seat % dim) * kSeatSpacingM, 0.0,
            center.z - half + static_cast<double>(seat / dim) * kSeatSpacingM};
}

}  // namespace

CampusWorld::CampusWorld(CampusConfig config)
    : config_(std::move(config)), world_(config_.buildings + 1, config_.seed) {
    if (config_.buildings == 0) throw std::invalid_argument("campus: no buildings");
    if (config_.tick_rate_hz <= 0.0) throw std::invalid_argument("campus: tick rate");

    origin_ = world_.add_node(0, "campus-origin", net::Region::HongKong);
    origin_demux_ =
        std::make_unique<net::PacketDemux>(world_.network(0), origin_.node);
    origin_demux_->on_flow(std::string{sync::kAvatarFlow}, [this](net::Packet&& p) {
        const auto wire = p.payload.take<sync::AvatarWire>();
        ++mirror_updates_;
        fold_wire(origin_digest_, wire);
    });
    origin_demux_->on_flow(std::string{sync::kAvatarBatchFlow}, [this](net::Packet&& p) {
        const auto batch = p.payload.take<sync::AvatarBatchWire>();
        for (const sync::AvatarWire& wire : batch.updates) {
            ++mirror_updates_;
            fold_wire(origin_digest_, wire);
        }
    });

    buildings_.reserve(config_.buildings);
    for (std::size_t b = 0; b < config_.buildings; ++b) build_building(b);
}

void CampusWorld::build_building(std::size_t index) {
    auto owned = std::make_unique<Building>();
    Building& b = *owned;
    b.index = index;

    const std::size_t shard = index + 1;
    net::Network& net = world_.network(shard);
    b.net = &net;

    const GlobalNode gw =
        world_.add_node(shard, "campus-gw-" + std::to_string(index),
                        net::Region::HongKong);
    b.gateway = gw.node;
    world_.connect_cross(gw, origin_, net::LinkParams{.latency = sim::Time::ms(5)});
    b.origin_proxy = world_.proxy_in(shard, origin_);

    b.egress = std::make_unique<cloud::AvatarEgress>(
        net, b.gateway,
        cloud::EgressConfig{
            .interest = config_.interest,
            .batch_interval = config_.mirror_stride != 0 ? config_.mirror_interval
                                                         : sim::Time::zero(),
            .aggregate_interval =
                config_.aggregate ? config_.aggregate_interval : sim::Time::zero(),
            .aggregate_cell_size = config_.cell_size_m});

    // Viewer nodes: receiving clients parked at classroom centres, one metro
    // hop from the gateway.
    const net::LinkParams metro{.latency = sim::Time::ms(1)};
    Building* bptr = &b;
    b.viewers.resize(config_.viewers_per_building);
    for (std::size_t v = 0; v < config_.viewers_per_building; ++v) {
        ViewerEndpoint& ve = b.viewers[v];
        ve.node = net.add_node(
            "campus-viewer-" + std::to_string(index) + "-" + std::to_string(v),
            net::Region::HongKong);
        ve.self = ParticipantId{0xF0000000u | (static_cast<std::uint32_t>(index) << 8) |
                                static_cast<std::uint32_t>(v)};
        ve.position =
            classroom_center(v % config_.classrooms_per_building,
                             config_.classrooms_per_building) +
            math::Vec3{0.0, 1.6, 0.0};
        net.connect(ve.node, b.gateway, metro);
        ve.demux = std::make_unique<net::PacketDemux>(net, ve.node);
        ve.demux->on_flow(std::string{sync::kAvatarFlow},
                          [bptr, v](net::Packet&& p) {
                              const auto wire = p.payload.take<sync::AvatarWire>();
                              ViewerEndpoint& me = bptr->viewers[v];
                              ++me.updates;
                              me.bytes += wire.wire_bytes() + net::kHeaderBytes;
                              fold_wire(me.digest, wire);
                          });
        ve.demux->on_flow(std::string{sync::kAvatarBatchFlow},
                          [bptr, v](net::Packet&& p) {
                              const auto batch = p.payload.take<sync::AvatarBatchWire>();
                              ViewerEndpoint& me = bptr->viewers[v];
                              ++me.batches;
                              me.bytes += batch.wire_bytes() + net::kHeaderBytes;
                              for (const sync::AvatarWire& wire : batch.updates) {
                                  ++me.updates;
                                  fold_wire(me.digest, wire);
                              }
                          });
        b.egress->add_viewer(ve.node, ve.self, ve.position);
    }

    // Avatars: SoA rows seeded at their seats; the add() dirty bit ships the
    // first full snapshot on tick one.
    const std::size_t per_building =
        config_.classrooms_per_building * config_.avatars_per_classroom;
    b.pool.reserve(per_building);
    b.anchors.reserve(per_building);
    for (std::size_t room = 0; room < config_.classrooms_per_building; ++room) {
        for (std::size_t seat = 0; seat < config_.avatars_per_classroom; ++seat) {
            const std::size_t local = room * config_.avatars_per_classroom + seat;
            const EntityId id{static_cast<std::uint32_t>((index << 20) | local)};
            const math::Vec3 anchor = seat_anchor(room, config_.classrooms_per_building,
                                                  seat, config_.avatars_per_classroom);
            b.pool.add(id, anchor);
            b.anchors.push_back(anchor);
        }
    }
    b.last_sent.assign(per_building, math::Vec3::zero());

    net.clock().schedule_every(sim::Time::seconds(1.0 / config_.tick_rate_hz),
                               [this, bptr] { tick(*bptr); });
    buildings_.push_back(std::move(owned));
}

void CampusWorld::tick(Building& b) {
    const sim::Time now = b.net->clock().now();
    const double t = now.to_seconds();
    const std::size_t n = b.pool.size();
    const auto ids = b.pool.ids();
    const auto pos = b.pool.positions();
    const auto vel = b.pool.velocities();
    const auto seqs = b.pool.seqs();
    const auto dirty = b.pool.dirty();

    // Motion integration: one cache-linear SoA sweep.
    const std::uint64_t motion_seed = config_.seed ^ (0xC0FFEEULL * (b.index + 1));
    for (std::size_t i = 0; i < n; ++i) {
        const auto s = config_.motion.at(motion_seed, i, t);
        pos[i] = b.anchors[i] + s.offset;
        vel[i] = s.velocity;
    }

    // Dirty sweep + egress.
    const double thr2 = config_.dirty_threshold_m * config_.dirty_threshold_m;
    for (std::size_t i = 0; i < n; ++i) {
        const bool moved = (pos[i] - b.last_sent[i]).norm_sq() > thr2;
        if (dirty[i] == 0 && !moved) continue;
        ++seqs[i];
        b.last_sent[i] = pos[i];
        ++b.updates_generated;

        // The record is encoded straight into the wire's inline bytes.
        sync::AvatarWire w{ParticipantId{ids[i].value()},
                           ClassroomId{static_cast<std::uint32_t>(b.index + 1)},
                           /*keyframe=*/false, {}, now, {}};
        w.seq = seqs[i];
        b.pool.encode_record(static_cast<std::uint32_t>(i), w.bytes);

        if (config_.mirror_stride != 0 && i % config_.mirror_stride == 0)
            b.egress->to_server(b.origin_proxy, w);
        b.egress->to_viewers(std::move(w), pos[i]);
    }
    b.pool.clear_dirty();
    ++b.ticks;
}

std::size_t CampusWorld::run_until(sim::Time until, std::size_t threads) {
    return world_.run_until(until, threads);
}

std::size_t CampusWorld::avatar_count() const {
    std::size_t total = 0;
    for (const auto& b : buildings_) total += b->pool.size();
    return total;
}

std::size_t CampusWorld::viewer_count() const {
    std::size_t total = 0;
    for (const auto& b : buildings_) total += b->viewers.size();
    return total;
}

std::uint64_t CampusWorld::egress_bytes() const {
    std::uint64_t total = 0;
    for (const auto& b : buildings_) total += b->egress->viewer_wire_bytes();
    return total;
}

std::uint64_t CampusWorld::viewer_updates() const {
    std::uint64_t total = 0;
    for (const auto& b : buildings_)
        for (const ViewerEndpoint& v : b->viewers) total += v.updates;
    return total;
}

std::uint64_t CampusWorld::viewer_batches() const {
    std::uint64_t total = 0;
    for (const auto& b : buildings_)
        for (const ViewerEndpoint& v : b->viewers) total += v.batches;
    return total;
}

std::uint64_t CampusWorld::updates_shipped() const {
    std::uint64_t total = 0;
    for (const auto& b : buildings_) total += b->egress->viewer_updates_shipped();
    return total;
}

std::uint64_t CampusWorld::suppressed_by_aoi() const {
    std::uint64_t total = 0;
    for (const auto& b : buildings_) total += b->egress->suppressed_by_aoi();
    return total;
}

std::uint64_t CampusWorld::suppressed_by_rate() const {
    std::uint64_t total = 0;
    for (const auto& b : buildings_) total += b->egress->suppressed_by_rate();
    return total;
}

std::uint64_t CampusWorld::state_digest() const {
    std::uint64_t d = 0;
    for (const auto& b : buildings_)
        for (const ViewerEndpoint& v : b->viewers) d = common::mix64(d ^ v.digest);
    return common::mix64(d ^ origin_digest_);
}

std::string CampusWorld::metrics_json() const { return merged_metrics().to_json().dump(2); }

sim::MetricsRecorder CampusWorld::merged_metrics() const {
    sim::MetricsRecorder m = world_.merged_metrics();
    std::uint64_t ticks = 0;
    std::uint64_t generated = 0;
    std::uint64_t viewer_bytes = 0;
    for (const auto& b : buildings_) {
        ticks += b->ticks;
        generated += b->updates_generated;
        for (const ViewerEndpoint& v : b->viewers) viewer_bytes += v.bytes;
    }
    m.count("campus/ticks", ticks);
    m.count("campus/updates_generated", generated);
    m.count("campus/updates_shipped", updates_shipped());
    m.count("campus/egress_bytes", egress_bytes());
    m.count("campus/viewer_updates", viewer_updates());
    m.count("campus/viewer_batches", viewer_batches());
    m.count("campus/viewer_bytes", viewer_bytes);
    m.count("campus/suppressed_aoi", suppressed_by_aoi());
    m.count("campus/suppressed_rate", suppressed_by_rate());
    m.count("campus/mirror_updates", mirror_updates_);
    m.count("campus/digest", state_digest());
    return m;
}

void CampusWorld::fold_wire(std::uint64_t& digest, const sync::AvatarWire& wire) {
    common::Hash64 h;
    h.u32(wire.participant.value()).u32(wire.seq);
    h.bytes(wire.bytes.data(), wire.bytes.size());
    digest = common::mix64(digest ^ h.digest());
}

}  // namespace mvc::core
