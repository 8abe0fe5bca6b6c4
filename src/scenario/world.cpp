#include "scenario/world.hpp"

#include <charconv>
#include <stdexcept>
#include <utility>

#include "cloud/relay.hpp"
#include "cloud/vr_client.hpp"
#include "cloud/vr_layout.hpp"
#include "core/campus.hpp"
#include "core/classroom.hpp"
#include "core/regional_deployment.hpp"
#include "core/wire_codecs.hpp"
#include "net/chaos.hpp"
#include "net/network.hpp"
#include "net/real_udp.hpp"
#include "net/transport.hpp"
#include "qoe/service.hpp"
#include "replay/rerun.hpp"
#include "sensing/headset.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace mvc::scenario {

namespace {

/// Parse the "<index>" of a "prefix/<index>" ref; nullopt for non-numeric.
[[nodiscard]] std::optional<std::size_t> ref_index(std::string_view suffix) {
    std::size_t value = 0;
    const auto* end = suffix.data() + suffix.size();
    const auto [ptr, ec] = std::from_chars(suffix.data(), end, value);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return value;
}

[[nodiscard]] std::uint64_t mix_digest(std::uint64_t h, std::uint64_t v) {
    // Boost-style hash combine over splitmix's constant: order-sensitive,
    // platform-stable.
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

}  // namespace

// ---------------------------------------------------------- world states

struct ScenarioWorld::ClassroomState {
    std::unique_ptr<core::MetaverseClassroom> classroom;
    bool started{false};
};

struct ScenarioWorld::RelayState {
    // Construction order IS teardown safety: clients/channels (declared
    // last) are destroyed before the chaos interposer and the inner
    // network/simulator they send through.
    std::unique_ptr<sim::Simulator> sim;
    std::unique_ptr<net::Network> inner;
    std::unique_ptr<net::RealUdpBackend> real;
    std::unique_ptr<net::ChaosBackend> chaos;
    std::unique_ptr<replay::AvatarMirror> mirror;
    net::Backend* backend{nullptr};
    net::NodeId relay_node{net::kInvalidNode};
    std::unique_ptr<cloud::RelayServer> relay;
    /// QoE video service co-located on the relay node (registers flows on
    /// the relay's demux — declared after it so teardown drops it first).
    std::unique_ptr<qoe::QoeService> qoe;
    std::vector<std::unique_ptr<cloud::VrClient>> clients;
    net::NodeId ctrl_a{net::kInvalidNode};
    net::NodeId ctrl_b{net::kInvalidNode};
    std::unique_ptr<net::PacketDemux> demux_a;
    std::unique_ptr<net::PacketDemux> demux_b;
    std::unique_ptr<net::ReliableChannel> ctrl;
};

struct ScenarioWorld::CampusState {
    /// Origin + one relay shard per region (spec.campus.regions).
    std::unique_ptr<core::RegionalDeployment> regional;
    /// Dense pooled campus (spec.campus.pooled.buildings > 0); `regional` is
    /// then null and the sharded engine lives inside the CampusWorld.
    std::unique_ptr<core::CampusWorld> pooled;

    [[nodiscard]] core::ShardedWorld& world() const {
        return pooled ? pooled->sharded() : regional->world();
    }
};

// -------------------------------------------------------------- building

ScenarioWorld::ScenarioWorld(ScenarioSpec spec) : spec_(std::move(spec)) {
    validate_spec(spec_);
    core::register_wire_codecs();
    switch (spec_.world) {
        case WorldKind::Classroom: build_classroom(); break;
        case WorldKind::Relay: build_relay(); break;
        case WorldKind::Campus: build_campus(); break;
    }
    arm_timeline();
    schedule_hashes();
}

ScenarioWorld::~ScenarioWorld() {
    try {
        stop();
    } catch (...) {
        // Teardown must not throw out of the destructor.
    }
}

void ScenarioWorld::build_classroom() {
    const ClassroomSpec& c = spec_.classroom;
    core::ClassroomConfig config;
    config.seed = spec_.seed;
    config.course = c.course;
    config.regional_mesh = c.regional_mesh;
    config.lightweight_remote_clients = c.lightweight_remote;
    config.event_bus = c.event_bus;
    config.probe_rate_hz = c.probe_rate_hz;
    if (c.heartbeat.enabled) {
        config.heartbeat.enabled = true;
        config.heartbeat.interval = c.heartbeat.interval;
        config.heartbeat.timeout = c.heartbeat.timeout;
    }
    if (c.degradation.enabled) config.degradation = c.degradation.params;
    if (c.recovery.enabled) {
        config.recovery.enabled = true;
        config.recovery.checkpoint_interval = c.recovery.checkpoint_interval;
    }
    if (c.admission.enabled) config.admission = c.admission.params;
    for (const RoomSpec& room : c.rooms) {
        if (room.preset == "cwb") {
            config.rooms.push_back(core::cwb_room_config());
        } else if (room.preset == "gz") {
            config.rooms.push_back(core::gz_room_config());
        } else {
            core::PhysicalRoomConfig rc;
            rc.name = room.name;
            rc.region = room.region;
            rc.seat_rows = room.rows;
            rc.seat_cols = room.cols;
            rc.headset = sensing::tethered_mr_params();
            config.rooms.push_back(std::move(rc));
        }
    }

    classroom_state_ = std::make_unique<ClassroomState>();
    classroom_state_->classroom = std::make_unique<core::MetaverseClassroom>(config);
    core::MetaverseClassroom& room = *classroom_state_->classroom;

    // Occupancy: when the spec leaves rooms implicit (the CWB+GZ default
    // deployment) it also gets the historical default occupancy.
    if (c.rooms.empty()) {
        room.add_instructor(0);
        for (std::size_t n = 0; n < 6; ++n) room.add_physical_student(0);
        for (std::size_t n = 0; n < 6; ++n) room.add_physical_student(1);
    } else {
        for (std::size_t i = 0; i < c.rooms.size(); ++i) {
            if (c.rooms[i].instructor) room.add_instructor(i);
            for (std::size_t n = 0; n < c.rooms[i].students; ++n)
                room.add_physical_student(i);
        }
    }
    for (const RemoteCohort& cohort : c.remote) {
        auto enrol = [&room, cohort] {
            for (std::size_t n = 0; n < cohort.count; ++n) {
                if (cohort.guest)
                    room.add_guest_speaker(cohort.region);
                else
                    room.add_remote_student(cohort.region);
            }
        };
        if (cohort.join_at > sim::Time::zero()) {
            room.simulator().schedule_at(cohort.join_at, enrol);  // load event
        } else {
            enrol();
        }
    }
    for (const ScheduleBlock& block : c.schedule)
        room.class_session().schedule().append(block.kind, block.duration,
                                               block.team_size);
    if (c.lecture_media_room) room.enable_lecture_media(*c.lecture_media_room);
}

void ScenarioWorld::build_relay() {
    const RelaySpec& r = spec_.relay;
    relay_state_ = std::make_unique<RelayState>();
    RelayState& st = *relay_state_;

    if (spec_.backend == BackendKind::RealUdp) {
        st.real = std::make_unique<net::RealUdpBackend>(
            net::RealUdpBackend::Options{.seed = spec_.seed});
        st.backend = st.real.get();
    } else {
        st.sim = std::make_unique<sim::Simulator>(spec_.seed);
        st.inner = std::make_unique<net::Network>(*st.sim);
        if (spec_.backend == BackendKind::Chaos) {
            st.chaos = std::make_unique<net::ChaosBackend>(*st.inner);
            st.backend = st.chaos.get();
        } else {
            st.backend = st.inner.get();
        }
    }

    st.relay_node = st.backend->add_node("relay", r.region);
    cloud::RelayConfig rc;
    rc.name = "relay";
    rc.serve_resync = r.serve_resync;
    rc.resync_freshness = r.resync_freshness;
    rc.batch_interval = r.batch_interval;
    // The QoE loop drives per-viewer tier rate clocks, which only exist on
    // the aggregated egress path — force aggregation on.
    if (spec_.qoe.enabled) rc.aggregate_interval = spec_.qoe.aggregate_interval;
    st.relay = std::make_unique<cloud::RelayServer>(*st.backend, st.relay_node, rc);
    if (spec_.qoe.enabled) {
        st.qoe = std::make_unique<qoe::QoeService>(*st.backend, st.relay->demux());
        st.qoe->set_aggregator(st.relay->egress().aggregator());
    }

    st.mirror = std::make_unique<replay::AvatarMirror>();
    st.mirror->install(*st.backend);

    net::LinkParams access;
    access.latency = r.access_latency;

    cloud::VrLayout layout;
    std::size_t index = 0;
    for (const ClientCohort& cohort : r.clients) {
        for (std::size_t n = 0; n < cohort.count; ++n, ++index) {
            const ParticipantId who{static_cast<std::uint32_t>(index + 1)};
            const net::NodeId node =
                st.backend->add_node("c" + std::to_string(index), cohort.region);
            if (st.inner) st.inner->connect(node, st.relay_node, access);

            cloud::VrClientConfig vc;
            vc.name = "c" + std::to_string(index);
            vc.room = ClassroomId{1};
            if (cohort.reconnect.enabled) {
                vc.auto_reconnect = true;
                vc.reconnect.liveness_timeout = cohort.reconnect.liveness_timeout;
                vc.reconnect.check_interval = cohort.reconnect.check_interval;
                vc.reconnect.probe_timeout = cohort.reconnect.probe_timeout;
                vc.reconnect.backoff.base = cohort.reconnect.backoff_base;
                vc.reconnect.backoff.cap = cohort.reconnect.backoff_cap;
            }
            if (cohort.adapt.enabled) {
                vc.self_adapt = true;
                vc.degradation = cohort.adapt.params;
            }
            if (spec_.qoe.enabled) {
                vc.qoe.enabled = true;
                vc.qoe.abr = spec_.qoe.abr;
                vc.qoe.budget = spec_.qoe.budget;
                vc.qoe.feedback_interval = spec_.qoe.feedback_interval;
                vc.qoe.playout_delay = spec_.qoe.playout_delay;
                vc.qoe.klass = cohort.priority;
                // Tier count must match the relay aggregator's policy: the
                // client's per-tier scale vectors index into its clocks.
                vc.qoe.interest = rc.interest;
            }
            const net::Priority video_class = cohort.priority == "low"
                                                  ? net::Priority::Bulk
                                                  : net::Priority::Realtime;
            auto client =
                std::make_unique<cloud::VrClient>(*st.backend, node, who, vc);
            cloud::VrClient* raw = client.get();
            const math::Pose seat = layout.seat_pose(index);
            auto join = [&st, raw, who, node, seat, video_class] {
                st.relay->attach_client(node, who, seat.position);
                if (st.qoe) st.qoe->add_client(node, video_class);
                raw->join(st.relay_node, seat);
            };
            if (cohort.join_at > sim::Time::zero()) {
                st.backend->clock().schedule_at(cohort.join_at, join);  // load event
            } else {
                join();
            }
            st.clients.push_back(std::move(client));
            clients_.push_back(raw);
        }
    }

    if (r.control.enabled) {
        st.ctrl_a = st.backend->add_node("ctrl-a", r.control.region_a);
        st.ctrl_b = st.backend->add_node("ctrl-b", r.control.region_b);
        if (st.inner) st.inner->connect(st.ctrl_a, st.ctrl_b, access);
        st.demux_a = std::make_unique<net::PacketDemux>(*st.backend, st.ctrl_a);
        st.demux_b = std::make_unique<net::PacketDemux>(*st.backend, st.ctrl_b);
        st.ctrl = std::make_unique<net::ReliableChannel>(*st.backend, *st.demux_a,
                                                         *st.demux_b, "ctrl");
        st.ctrl->on_delivered(
            [this](net::Payload, sim::Time, int) { ++ctrl_delivered_; });
        st.backend->clock().schedule_every(r.control.interval, [this, &st] {
            st.ctrl->send(200, ctrl_sent_);
            ++ctrl_sent_;
        });
    }
}

void ScenarioWorld::build_campus() {
    const CampusSpec& c = spec_.campus;
    campus_state_ = std::make_unique<CampusState>();
    CampusState& st = *campus_state_;

    if (c.pooled.buildings > 0) {
        core::CampusConfig cc;
        cc.buildings = c.pooled.buildings;
        cc.classrooms_per_building = c.pooled.classrooms_per_building;
        cc.avatars_per_classroom = c.pooled.avatars_per_classroom;
        cc.viewers_per_building = c.pooled.viewers_per_building;
        cc.tick_rate_hz = c.pooled.tick_rate_hz;
        cc.aggregate = c.pooled.aggregate;
        cc.aggregate_interval = c.pooled.aggregate_interval;
        cc.seed = spec_.seed;
        st.pooled = std::make_unique<core::CampusWorld>(std::move(cc));
        return;
    }

    st.regional = std::make_unique<core::RegionalDeployment>(
        core::RegionalDeploymentConfig{.regions = c.regions,
                                       .clients = c.clients_per_region * c.regions.size(),
                                       .batch_interval = c.batch_interval,
                                       .lightweight = c.lightweight,
                                       .seed = spec_.seed});
    for (const auto& client : st.regional->clients()) clients_.push_back(client.get());
}

// --------------------------------------------------- timeline and hashes

std::vector<ResolvedNode> ScenarioWorld::resolve(const std::string& ref) const {
    auto fail = [&ref]() -> std::vector<ResolvedNode> {
        throw SpecError("timeline", "unknown node ref '" + ref + "'");
    };
    const auto split = ref.find('/');
    const std::string head = ref.substr(0, split);
    const std::string tail = split == std::string::npos ? "" : ref.substr(split + 1);

    if (classroom_state_) {
        core::MetaverseClassroom& room = *classroom_state_->classroom;
        if (ref == "cloud") return {{0, room.cloud_server().node()}};
        if (head == "edge") {
            const auto idx = ref_index(tail);
            if (!idx || *idx >= room.room_count()) return fail();
            return {{0, room.edge_server(*idx).node()}};
        }
        return fail();
    }
    if (campus_state_ && campus_state_->pooled) return fail();  // no symbolic nodes
    const core::RegionalDeployment* regional =
        campus_state_ ? campus_state_->regional.get() : nullptr;
    if (head == "client") {
        // Relay-world clients all live in shard 0; campus client i in its region's.
        const auto at = [&](std::size_t i) -> ResolvedNode {
            return {regional ? regional->client_shard(i) : 0, clients_[i]->node()};
        };
        if (tail == "*") {
            std::vector<ResolvedNode> all;
            for (std::size_t i = 0; i < clients_.size(); ++i) all.push_back(at(i));
            return all;
        }
        const auto idx = ref_index(tail);
        if (!idx || *idx >= clients_.size()) return fail();
        return {at(*idx)};
    }
    if (relay_state_) {
        const RelayState& st = *relay_state_;
        if (ref == "relay") return {{0, st.relay_node}};
        if (ref == "ctrl/a" && st.ctrl_a != net::kInvalidNode) return {{0, st.ctrl_a}};
        if (ref == "ctrl/b" && st.ctrl_b != net::kInvalidNode) return {{0, st.ctrl_b}};
    } else if (regional != nullptr) {
        if (ref == "cloud") return {{0, regional->origin_node().node}};
        for (std::size_t r = 0; r < spec_.campus.regions.size(); ++r) {
            if (head == "relay" && net::region_name(spec_.campus.regions[r]) == tail)
                return {{r + 1, regional->relay_nodes()[r].node}};
        }
    }
    return fail();
}

fault::FaultPlan* ScenarioWorld::plan(std::size_t shard) {
    return shard < plans_.size() ? plans_[shard].get() : nullptr;
}

void ScenarioWorld::arm_timeline() {
    if (spec_.timeline.empty()) return;
    const std::size_t shard_count =
        campus_state_ ? campus_state_->world().shard_count() : 1;
    plans_.resize(shard_count);
    auto plan_for = [this](std::size_t shard) -> fault::FaultPlan& {
        if (!plans_[shard]) {
            net::Network& net =
                campus_state_
                    ? campus_state_->world().network(shard)
                    : (classroom_state_ ? classroom_state_->classroom->network()
                                        : *relay_state_->inner);
            plans_[shard] = std::make_unique<fault::FaultPlan>(net);
            if (relay_state_ && relay_state_->chaos)
                plans_[shard]->set_chaos(relay_state_->chaos.get());
        }
        return *plans_[shard];
    };
    compile_timeline(
        spec_.timeline, [this](const std::string& ref) { return resolve(ref); },
        plan_for);
    for (auto& plan : plans_)
        if (plan) plan->arm();
}

void ScenarioWorld::schedule_hashes() {
    if (spec_.hash_interval <= sim::Time::zero()) return;
    if (classroom_state_) {
        core::MetaverseClassroom& room = *classroom_state_->classroom;
        room.simulator().schedule_every(spec_.hash_interval, [this, &room] {
            std::uint64_t h = 0;
            for (std::size_t i = 0; i < room.room_count(); ++i)
                h = mix_digest(h, room.edge_server(i).state_digest());
            h = mix_digest(h, room.cloud_server().state_digest());
            hashes_.push_back(h);
        });
    } else if (relay_state_) {
        RelayState& st = *relay_state_;
        st.backend->clock().schedule_every(spec_.hash_interval, [this, &st] {
            hashes_.push_back(st.mirror->state_hash());
        });
    } else if (campus_state_) {
        CampusState& st = *campus_state_;
        // Scheduled in shard 0, reading only shard-0 state (the origin), so
        // the stream is identical for every worker-thread count.
        if (st.pooled) {
            st.pooled->simulator(0).schedule_every(spec_.hash_interval, [this, &st] {
                hashes_.push_back(st.pooled->origin_digest());
            });
        } else {
            st.world().simulator(0).schedule_every(spec_.hash_interval, [this, &st] {
                hashes_.push_back(st.regional->origin().state_digest());
            });
        }
    }
}

// --------------------------------------------------------------- driving

void ScenarioWorld::enable_recording(replay::Recorder& rec) {
    if (classroom_state_) {
        classroom_state_->classroom->enable_recording(rec, spec_.hash_interval);
    } else if (campus_state_) {
        campus_state_->world().enable_recording(rec);
    } else {
        throw std::logic_error("scenario: recording is classroom/campus only");
    }
}

std::size_t ScenarioWorld::run(std::size_t threads) {
    if (classroom_state_) {
        core::MetaverseClassroom& room = *classroom_state_->classroom;
        if (!classroom_state_->started) {
            room.start();
            classroom_state_->started = true;
        }
        const std::size_t before = room.simulator().executed_events();
        room.run_for(spec_.duration);
        return room.simulator().executed_events() - before;
    }
    if (relay_state_) {
        if (relay_state_->sim)
            return relay_state_->sim->run_until(relay_state_->sim->now() + spec_.duration);
        relay_state_->real->run_for(spec_.duration);
        return 0;
    }
    return campus_state_->world().run_until(spec_.duration, threads);
}

void ScenarioWorld::stop() {
    if (stopped_) return;
    stopped_ = true;
    if (classroom_state_ && classroom_state_->started)
        classroom_state_->classroom->stop();
    if (relay_state_) {
        for (auto& c : relay_state_->clients) {
            if (relay_state_->qoe) relay_state_->qoe->remove_client(c->node());
            c->leave();
        }
    }
}

// --------------------------------------------------------------- metrics

sim::MetricsRecorder ScenarioWorld::collect_metrics() const {
    sim::MetricsRecorder out;
    if (classroom_state_) {
        out.merge(classroom_state_->classroom->network().metrics());
    } else if (relay_state_) {
        const RelayState& st = *relay_state_;
        out.merge(st.inner ? st.inner->metrics() : st.real->metrics());
        if (st.chaos) {
            out.count("chaos.dropped", st.chaos->dropped());
            out.count("chaos.duplicated", st.chaos->duplicated());
            out.count("chaos.reordered", st.chaos->reordered());
            out.count("chaos.corrupted", st.chaos->corrupted());
            out.count("chaos.blackholed", st.chaos->blackholed());
        }
        if (st.ctrl) {
            out.count("scenario.ctrl_sent", ctrl_sent_);
            out.count("scenario.ctrl_delivered", ctrl_delivered_);
        }
        std::uint64_t resyncs = 0;
        std::uint64_t outages = 0;
        std::uint64_t reconnects = 0;
        std::uint64_t max_level = 0;
        for (const auto& c : st.clients) {
            resyncs += c->resyncs_applied();
            if (const recovery::Reconnector* rec = c->reconnector()) {
                outages += rec->outages();
                reconnects += rec->reconnects();
            }
            max_level =
                std::max(max_level, static_cast<std::uint64_t>(c->degradation_level()));
        }
        out.count("scenario.resyncs_applied", resyncs);
        out.count("scenario.outages", outages);
        out.count("scenario.reconnects", reconnects);
        out.count("scenario.degradation_level_now", max_level);
        if (st.qoe) {
            out.count("qoe.feedback_received", st.qoe->feedback_received());
            out.count("qoe.rung_changes", st.qoe->rung_changes());
            out.count("qoe.frames_sent", st.qoe->frames_sent());
            if (sync::CellDeltaAggregator* agg = st.relay->egress().aggregator())
                out.count("sync.suppressed_budget", agg->suppressed_by_budget());
        }
    } else if (campus_state_) {
        out.merge(campus_state_->pooled ? campus_state_->pooled->merged_metrics()
                                        : campus_state_->world().merged_metrics());
    }
    out.count("scenario.hash_epochs", hashes_.size());
    return out;
}

// ------------------------------------------------------------- accessors

sim::Simulator& ScenarioWorld::simulator() {
    if (classroom_state_) return classroom_state_->classroom->simulator();
    if (relay_state_) {
        if (!relay_state_->sim)
            throw std::logic_error("scenario: real_udp runs on a wall clock");
        return *relay_state_->sim;
    }
    return campus_state_->world().simulator(0);
}

net::Backend& ScenarioWorld::backend() {
    if (classroom_state_) return classroom_state_->classroom->network();
    if (relay_state_) return *relay_state_->backend;
    return campus_state_->world().network(0);
}

core::MetaverseClassroom& ScenarioWorld::classroom() {
    if (!classroom_state_) throw std::logic_error("scenario: not a classroom world");
    return *classroom_state_->classroom;
}

cloud::RelayServer& ScenarioWorld::relay() {
    if (!relay_state_) throw std::logic_error("scenario: not a relay world");
    return *relay_state_->relay;
}

cloud::VrClient& ScenarioWorld::client(std::size_t i) {
    if (i >= clients_.size()) throw std::out_of_range("scenario: client index");
    return *clients_[i];
}

net::ChaosBackend* ScenarioWorld::chaos() {
    return relay_state_ ? relay_state_->chaos.get() : nullptr;
}

std::unique_ptr<ScenarioWorld> build(const ScenarioSpec& spec) {
    return std::make_unique<ScenarioWorld>(spec);
}

}  // namespace mvc::scenario
