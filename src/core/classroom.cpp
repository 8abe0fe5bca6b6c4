#include "core/classroom.hpp"

#include "net/channel.hpp"
#include "replay/recorder.hpp"
#include "replay/state_hash.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mvc::core {

namespace {
/// Wire payload of the interaction event bus.
struct EventWire {
    ParticipantId who;
    session::InteractionKind kind{};
    /// Event timestamp expressed in the master (room 0) clock.
    sim::Time master_ts{};
    std::size_t source_room{0};
};
constexpr const char* kEventFlow = "event";
}  // namespace

PhysicalRoomConfig cwb_room_config() {
    PhysicalRoomConfig c;
    c.name = "cwb";
    c.region = net::Region::HongKong;
    c.headset = sensing::tethered_mr_params();
    return c;
}

PhysicalRoomConfig gz_room_config() {
    PhysicalRoomConfig c;
    c.name = "gz";
    c.region = net::Region::Guangzhou;
    c.headset = sensing::tethered_mr_params();
    return c;
}

std::string ClassReport::summary() const {
    std::ostringstream os;
    os << "participants: " << physical_participants << " physical + "
       << remote_participants << " remote\n";
    const auto describe = [&os](const char* label, const math::SampleSeries& s) {
        if (s.empty()) return;
        os << label << ": mean=" << s.mean() << " p50=" << s.median()
           << " p95=" << s.p95() << " p99=" << s.p99() << "\n";
    };
    describe("MR display latency ms (all origins)", mr_display_latency_ms);
    describe("MR cross-campus latency ms", mr_cross_campus_ms);
    describe("MR remote-origin latency ms", mr_remote_origin_ms);
    describe("event visibility ms (synced clocks)", event_visibility_ms);
    if (!vr_display_latency_ms.empty()) {
        os << "VR client latency ms: mean=" << vr_display_latency_ms.mean()
           << " p50=" << vr_display_latency_ms.median()
           << " p95=" << vr_display_latency_ms.p95()
           << " p99=" << vr_display_latency_ms.p99() << "\n";
    }
    os << "avatar bytes: " << avatar_bytes << " / total bytes: " << total_bytes << "\n";
    os << "wifi utilization (max room): " << wifi_utilization_max << "\n";
    os << "participation ratio: " << participation_ratio << "\n";
    os << "seat exhaustion events: " << seats_exhausted << "\n";
    if (media_enabled) {
        os << "lecture media: " << media_bytes << " bytes, worst camera "
           << media_worst_camera_db << " dB, A/V skew p95 " << media_av_skew_p95_ms
           << " ms\n";
    }
    return os.str();
}

MetaverseClassroom::MetaverseClassroom(ClassroomConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      net_(sim_),
      event_visibility_id_(net_.metrics().series_id("event.visibility_ms")),
      display_latency_id_(net_.metrics().series_id("mr.display_latency_ms")),
      cross_campus_id_(net_.metrics().series_id("mr.cross_campus_ms")),
      remote_origin_id_(net_.metrics().series_id("mr.remote_origin_ms")),
      stale_displays_id_(net_.metrics().counter_id("mr.stale_displays")),
      store_(config_.recovery.retain),
      session_(config_.course) {
    if (config_.rooms.empty()) {
        config_.rooms = {cwb_room_config(), gz_room_config()};
    }
    build_rooms();
    build_cloud();
    build_event_bus();

    // Edge servers peer with each other and with the cloud; the cloud is
    // also each edge's failover relay for dead edge-to-edge links.
    for (std::size_t i = 0; i < rooms_.size(); ++i) {
        for (std::size_t j = 0; j < rooms_.size(); ++j) {
            if (i == j) continue;
            rooms_[i].server->add_peer(rooms_[j].edge_node);
        }
        rooms_[i].server->set_cloud_relay(cloud_node_);
        cloud_->add_peer(rooms_[i].edge_node);
        // Edge checkpoints carry the session roster + content ledger, so a
        // restarted edge can hand the whole class back to the application.
        rooms_[i].server->set_checkpoint_decorator(
            [this](recovery::ClassroomCheckpoint& cp) { session_.capture(cp); });
    }
}

void MetaverseClassroom::build_rooms() {
    for (std::size_t i = 0; i < config_.rooms.size(); ++i) {
        PhysicalRoomConfig rc = config_.rooms[i];
        Room room;
        room.config = rc;
        room.edge_node = net_.add_node("edge-" + rc.name, rc.region);

        edge::EdgeServerConfig ec = rc.edge;
        ec.room = ClassroomId{static_cast<std::uint32_t>(i + 1)};
        ec.name = rc.name;
        if (config_.heartbeat.enabled) {
            ec.heartbeat = config_.heartbeat;
            ec.degradation = config_.degradation;
        }
        if (config_.recovery.enabled) {
            ec.recovery = config_.recovery;
            ec.recovery.store = &store_;
        }
        if (config_.admission.enabled) ec.admission = config_.admission;
        room.server = std::make_unique<edge::EdgeServer>(
            net_, room.edge_node, ec, edge::SeatMap::grid(rc.seat_rows, rc.seat_cols));

        room.wifi = std::make_unique<net::WifiChannel>(sim_, rc.name, rc.wifi);
        rooms_.push_back(std::move(room));
    }
    // WAN links between every pair of edge nodes.
    for (std::size_t i = 0; i < rooms_.size(); ++i) {
        for (std::size_t j = i + 1; j < rooms_.size(); ++j) {
            net_.connect_wan(rooms_[i].edge_node, rooms_[j].edge_node, wan_);
        }
    }
}

void MetaverseClassroom::build_cloud() {
    cloud_node_ = net_.add_node("cloud", config_.cloud_region);
    cloud::CloudServerConfig cc = config_.cloud;
    cc.room = ClassroomId{static_cast<std::uint32_t>(rooms_.size() + 1)};
    if (config_.heartbeat.enabled) cc.heartbeat = config_.heartbeat;
    if (config_.recovery.enabled) {
        cc.recovery = config_.recovery;
        cc.recovery.store = &store_;
    }
    if (config_.admission.enabled) cc.admission = config_.admission;
    cloud_ = std::make_unique<cloud::CloudServer>(net_, cloud_node_, cc);
    for (auto& room : rooms_) {
        net_.connect_wan(room.edge_node, cloud_node_, wan_);
    }
    if (config_.regional_mesh) {
        mesh_ = std::make_unique<cloud::RegionalMesh>(net_, wan_, *cloud_,
                                                      config_.cloud_region);
    }
}

edge::EdgeServer& MetaverseClassroom::edge_server(std::size_t room_index) {
    return *rooms_.at(room_index).server;
}

cloud::VrClient& MetaverseClassroom::remote_client(ParticipantId who) {
    return *remote_.at(who).client;
}

ParticipantId MetaverseClassroom::add_physical_student(std::size_t room_index,
                                                       comfort::UserProfile profile) {
    Room& room = rooms_.at(room_index);
    // Find the first vacant seat for a physically-present student.
    const auto vacant = room.server->seats().vacant_indices();
    if (vacant.empty()) throw std::runtime_error("add_physical_student: room is full");
    const std::size_t seat_index = vacant.front();

    session::Participant p;
    p.name = room.config.name + "-student-" + std::to_string(++name_counter_);
    p.role = session::Role::Student;
    p.device = session::DeviceClass::TetheredMr;
    p.attendance =
        session::PhysicalAttendance{ClassroomId{static_cast<std::uint32_t>(room_index + 1)},
                                    seat_index};
    p.comfort_profile = profile;
    const ParticipantId id = session_.enroll(std::move(p));

    room.server->add_local_participant(id, seat_index);

    PhysicalPerson person;
    person.room_index = room_index;
    person.seated = std::make_unique<session::SeatedBehaviour>(
        sim_.rng_stream("behaviour/" + std::to_string(id.value())),
        room.server->seats().seat(seat_index).pose);
    auto* behaviour = person.seated.get();
    return wire_headset(id, std::move(person),
                        room.config.name + "/" + std::to_string(id.value()),
                        [behaviour, this] { return behaviour->truth(sim_.now()); });
}

ParticipantId MetaverseClassroom::add_instructor(std::size_t room_index) {
    Room& room = rooms_.at(room_index);

    session::Participant p;
    p.name = room.config.name + "-instructor";
    p.role = session::Role::Instructor;
    p.device = session::DeviceClass::TetheredMr;
    p.attendance = session::PhysicalAttendance{
        ClassroomId{static_cast<std::uint32_t>(room_index + 1)}, 0};
    const ParticipantId id = session_.enroll(std::move(p));

    room.server->add_local_participant(id, std::nullopt);

    PhysicalPerson person;
    person.room_index = room_index;
    person.instructor = std::make_unique<session::InstructorBehaviour>(
        sim_.rng_stream("behaviour/instructor/" + std::to_string(id.value())),
        math::Pose{{0.0, 0.0, 0.5}, math::Quat::identity()});
    auto* behaviour = person.instructor.get();
    return wire_headset(id, std::move(person), room.config.name + "/instructor",
                        [behaviour, this] { return behaviour->truth(sim_.now()); });
}

ParticipantId MetaverseClassroom::wire_headset(ParticipantId id, PhysicalPerson person,
                                               std::string headset_name,
                                               sensing::Headset::TruthFn truth) {
    Room& room = rooms_.at(person.room_index);
    person.station = room.wifi->add_station();

    auto* wifi = room.wifi.get();
    auto* server = room.server.get();
    const net::StationId station = person.station;
    person.headset = std::make_unique<sensing::Headset>(
        sim_, std::move(headset_name), id, room.config.headset, std::move(truth),
        [wifi, server, station](sensing::SensorSample&& s) {
            // Headset -> WiFi -> edge server. ~90 B per tracking sample.
            net::Packet pkt;
            pkt.size_bytes = 64 + s.expression.size() * 2;
            pkt.payload = std::move(s);
            wifi->send(station, std::move(pkt), [server](net::Packet&& delivered) {
                server->ingest_sample(delivered.payload.take<sensing::SensorSample>());
            });
        });

    // Make the participant visible in the VR classroom too.
    cloud_->place_entity(id);

    // Room cameras track everyone present.
    if (room.sensors) room.sensors->track(id);

    physical_.emplace(id, std::move(person));
    return id;
}

ParticipantId MetaverseClassroom::add_remote_student(net::Region region,
                                                     comfort::UserProfile profile) {
    const std::string name = "remote-" + std::string{net::region_name(region)} + "-" +
                             std::to_string(++name_counter_);
    session::Participant p;
    p.name = name;
    p.role = session::Role::Student;
    p.device = session::DeviceClass::StandaloneVr;
    p.attendance = session::RemoteAttendance{region};
    p.comfort_profile = profile;
    const ParticipantId id = session_.enroll(std::move(p));

    RemotePerson person;
    person.node = net_.add_node(name, region);

    cloud::VrClientConfig vc = config_.vr_client;
    vc.name = "vr-" + std::to_string(id.value());
    vc.room = ClassroomId{static_cast<std::uint32_t>(rooms_.size() + 1)};
    vc.lightweight = config_.lightweight_remote_clients;
    vc.latency_metric = "vr.e2e_ms";
    person.client = std::make_unique<cloud::VrClient>(net_, person.node, id, vc);

    if (config_.regional_mesh) {
        cloud::RelayServer& relay = mesh_->relay_for(region);
        net_.connect_wan(person.node, relay.node(), wan_);
        const math::Pose seat = mesh_->attach_client(person.node, id, region);
        person.client->join(relay.node(), seat);
    } else {
        net_.connect_wan(person.node, cloud_node_, wan_);
        const auto seat = cloud_->attach_client(person.node, id);
        if (!seat.has_value())
            throw std::runtime_error("add_remote_student: cloud at capacity");
        person.client->join(cloud_node_, *seat);
    }

    remote_.emplace(id, std::move(person));
    return id;
}

void MetaverseClassroom::build_event_bus() {
    if (!config_.event_bus) return;
    sim::Rng rng = sim_.rng_stream("room-clocks");
    for (auto& room : rooms_) {
        room.clock = sync::DriftingClock{
            rng.normal(0.0, config_.clock_skew_ppm_sigma),
            sim::Time::ms(rng.normal(0.0, config_.clock_offset_ms_sigma))};
    }
    // Room 0 is the time master; every other room runs an NTP session to it.
    for (std::size_t i = 1; i < rooms_.size(); ++i) {
        rooms_[i].clock_sync = std::make_unique<sync::ClockSyncSession>(
            net_, rooms_[i].server->demux(), rooms_[0].server->demux(),
            "ntp." + rooms_[i].config.name, rooms_[i].clock, rooms_[0].clock);
    }
    // Every room listens for interaction events from the others.
    for (std::size_t i = 0; i < rooms_.size(); ++i) {
        rooms_[i].server->demux().on_flow(kEventFlow, [this, i](net::Packet&& p) {
            const auto& wire = p.payload.get<EventWire>();
            const Room& room = rooms_[i];
            const sim::Time local_now = room.clock.local_time(sim_.now());
            const sim::Time master_now =
                i == 0 || room.clock_sync == nullptr
                    ? local_now
                    : room.clock_sync->to_server_time(local_now);
            net_.metrics().sample(event_visibility_id_,
                                  (master_now - wire.master_ts).to_ms());
        });
    }
}

void MetaverseClassroom::publish_event(std::size_t room_index, ParticipantId who,
                                       session::InteractionKind kind) {
    if (!config_.event_bus || rooms_.size() < 2) return;
    const Room& source = rooms_[room_index];
    const sim::Time local_now = source.clock.local_time(sim_.now());
    EventWire wire;
    wire.who = who;
    wire.kind = kind;
    wire.source_room = room_index;
    wire.master_ts = room_index == 0 || source.clock_sync == nullptr
                         ? local_now
                         : source.clock_sync->to_server_time(local_now);
    const net::Payload shared{wire};
    net::Channel event_tx = net_.open_channel(
        {.src = source.edge_node,
         .flow = kEventFlow,
         .options = {.priority = net::Priority::Control}});
    for (std::size_t j = 0; j < rooms_.size(); ++j) {
        if (j == room_index) continue;
        event_tx.send_to(rooms_[j].edge_node, 64, shared);
    }
}

ParticipantId MetaverseClassroom::add_guest_speaker(net::Region region,
                                                    std::string name) {
    if (name.empty()) {
        name = "guest-" + std::string{net::region_name(region)};
    }
    session::Participant p;
    p.name = name;
    p.role = session::Role::GuestSpeaker;
    p.device = session::DeviceClass::StandaloneVr;
    p.attendance = session::RemoteAttendance{region};
    const ParticipantId id = session_.enroll(std::move(p));

    RemotePerson person;
    person.node = net_.add_node(name, region);

    cloud::VrClientConfig vc = config_.vr_client;
    vc.name = "guest-" + std::to_string(id.value());
    vc.room = ClassroomId{static_cast<std::uint32_t>(rooms_.size() + 1)};
    vc.lightweight = false;  // a speaker's avatar must reconstruct fully
    vc.latency_metric = "vr.e2e_ms";
    // Speakers gesture constantly and move more than a seated listener.
    vc.sway_amplitude = 0.15;
    vc.gesture_rate = 0.5;
    person.client = std::make_unique<cloud::VrClient>(net_, person.node, id, vc);

    // Every physical room reserves a seat for the speaker so the audience
    // race (nearer regions' streams anchor first) cannot squeeze them out.
    for (auto& room : rooms_) {
        (void)room.server->reserve_seat(id);
    }

    if (config_.regional_mesh) {
        cloud::RelayServer& relay = mesh_->relay_for(region);
        net_.connect_wan(person.node, relay.node(), wan_);
        person.client->join(relay.node(), mesh_->attach_client(person.node, id, region));
    } else {
        net_.connect_wan(person.node, cloud_node_, wan_);
        const auto seat = cloud_->attach_client(person.node, id);
        if (!seat.has_value())
            throw std::runtime_error("add_guest_speaker: cloud at capacity");
        // Speakers stand at the virtual stage, not in the audience rings.
        const math::Pose stage{{0.0, 0.0, 0.5}, math::Quat::identity()};
        person.client->join(cloud_node_, stage);
    }
    remote_.emplace(id, std::move(person));
    return id;
}

void MetaverseClassroom::enable_lecture_media(std::size_t teaching_room) {
    if (started_) throw std::logic_error("enable_lecture_media: call before start()");
    if (media_ != nullptr) return;
    teaching_room_ = teaching_room;
    Room& source = rooms_.at(teaching_room);
    media_ = std::make_unique<MediaBridge>(net_, source.server->demux(), config_.media);
    for (std::size_t i = 0; i < rooms_.size(); ++i) {
        if (i == teaching_room) continue;
        const sim::Time one_way = wan_.one_way_delay(source.config.region,
                                                     rooms_[i].config.region);
        media_->add_destination(rooms_[i].server->demux(), one_way);
    }
}

void MetaverseClassroom::enable_recording(replay::Recorder& rec,
                                          sim::Time hash_interval) {
    if (recorder_ != nullptr)
        throw std::logic_error("enable_recording: already recording");
    if (hash_interval <= sim::Time::zero())
        throw std::invalid_argument("enable_recording: hash_interval must be positive");
    recorder_ = &rec;
    rec.attach(net_, 0);
    rec.observe_store(store_, sim_);
    record_subject_sim_ = rec.subject("sim");
    record_subject_rooms_.clear();
    for (const Room& room : rooms_)
        record_subject_rooms_.push_back(rec.subject("edge/" + room.config.name));
    record_subject_cloud_ = rec.subject("cloud");
    record_task_ = sim_.schedule_every(hash_interval, [this] { record_tick(); });
}

void MetaverseClassroom::record_tick() {
    replay::Recorder& rec = *recorder_;
    rec.drain_all();
    const sim::Time now = sim_.now();
    const std::uint64_t epoch = record_epoch_++;
    rec.record_hash(epoch, record_subject_sim_, replay::simulation_hash(sim_, net_), now);
    for (std::size_t i = 0; i < rooms_.size(); ++i)
        rec.record_hash(epoch, record_subject_rooms_[i],
                        rooms_[i].server->state_digest(), now);
    rec.record_hash(epoch, record_subject_cloud_, cloud_->state_digest(), now);
}

void MetaverseClassroom::start() {
    if (started_) return;
    started_ = true;
    for (std::size_t i = 0; i < rooms_.size(); ++i) {
        Room& room = rooms_[i];
        // Room sensor arrays are created lazily at start so their truth
        // callback can reach every enrolled participant.
        auto* server = room.server.get();
        const sim::Time wire_latency = room.config.sensor_wire_latency;
        room.sensors = std::make_unique<sensing::RoomSensorArray>(
            sim_, room.config.name, room.config.room_sensors,
            [this](ParticipantId who) { return truth_of(who, sim_.now()); },
            [this, server, wire_latency](sensing::SensorSample&& s) {
                // A camera sample is a position; carrying only that keeps
                // the closure inside one event-pool block.
                sim_.schedule_after(wire_latency, [server, who = s.participant,
                                                   at = s.captured_at,
                                                   position = s.pose.position] {
                    server->ingest_sample(sensing::room_camera_sample(who, at, position));
                });
            });
        for (const auto& [id, person] : physical_) {
            if (person.room_index == i) room.sensors->track(id);
        }
        room.sensors->start();
        room.server->start();
    }
    cloud_->start();
    for (auto& [id, person] : physical_) person.headset->start();
    for (auto& room : rooms_) {
        if (room.clock_sync) room.clock_sync->start();
    }
    if (media_) {
        media_->start();
        media_started_at_ = sim_.now();
    }
    if (config_.probe_rate_hz > 0.0) {
        probe_task_ = sim_.schedule_every(
            sim::Time::seconds(1.0 / config_.probe_rate_hz), [this] { probe_tick(); });
    }
}

void MetaverseClassroom::stop() {
    if (!started_) return;
    started_ = false;
    sim_.cancel(probe_task_);
    if (recorder_ != nullptr) {
        sim_.cancel(record_task_);
        recorder_->drain_all();
    }
    for (auto& room : rooms_) {
        room.server->stop();
        if (room.sensors) room.sensors->stop();
        if (room.clock_sync) room.clock_sync->stop();
    }
    cloud_->stop();
    for (auto& [id, person] : physical_) person.headset->stop();
    for (auto& [id, person] : remote_) person.client->leave();
    if (media_) media_->stop();
}

void MetaverseClassroom::run_for(sim::Time duration) {
    sim_.run_until(sim_.now() + duration);
}

void MetaverseClassroom::probe_tick() {
    const sim::Time now = sim_.now();
    // Interaction bookkeeping: hand-raise rising edges become session events
    // (the engagement signal the blended classroom is meant to lift).
    for (auto& [id, person] : physical_) {
        if (person.seated == nullptr) continue;
        const bool raised = person.seated->hand_raised();
        if (raised && !person.hand_was_raised) {
            session_.record_event(now, id, session::InteractionKind::HandRaise);
            publish_event(person.room_index, id, session::InteractionKind::HandRaise);
        }
        person.hand_was_raised = raised;
    }
    // The lecture audio follows the instructor's speech pattern.
    if (media_) {
        for (const auto& [id, person] : physical_) {
            if (person.instructor != nullptr && person.room_index == teaching_room_) {
                media_->set_speaking(person.instructor->speaking(now));
                break;
            }
        }
    }
    // For every MR room, check the display state of every remote avatar it
    // hosts — the cross-classroom "intervention visibility" latency.
    for (auto& room : rooms_) {
        for (const ParticipantId who : room.server->remote_participants()) {
            const auto shown = room.server->display_remote(who, now);
            if (!shown.has_value()) continue;
            const double ms = (now - shown->captured_at).to_ms();
            // Latency is only meaningful when fresh data arrived: a still
            // participant legitimately sends nothing between keyframes and
            // their (correct) extrapolated display would read as "old".
            // Sample when new network updates were decoded since the last
            // probe; flag real staleness (outages) separately.
            const std::uint64_t key =
                (static_cast<std::uint64_t>(room.edge_node) << 32) | who.value();
            std::uint64_t& last = probe_last_update_[key];
            const std::uint64_t decoded = room.server->remote_update_count(who);
            if (decoded > last) {
                last = decoded;
                net_.metrics().sample(display_latency_id_, ms);
                // Split by origin: campus-to-campus vs remote VR attendee.
                net_.metrics().sample(
                    physical_.contains(who) ? cross_campus_id_ : remote_origin_id_, ms);
            } else if (ms > 1000.0) {
                net_.metrics().count(stale_displays_id_);
            }
        }
    }
}

sensing::GroundTruth MetaverseClassroom::truth_of(ParticipantId who, sim::Time now) {
    const auto it = physical_.find(who);
    if (it == physical_.end()) return {};
    if (it->second.seated) return it->second.seated->truth(now);
    if (it->second.instructor) return it->second.instructor->truth(now);
    return {};
}

std::optional<sensing::GroundTruth> MetaverseClassroom::ground_truth(ParticipantId who,
                                                                     sim::Time now) {
    if (!physical_.contains(who)) return std::nullopt;
    return truth_of(who, now);
}

ClassReport MetaverseClassroom::report() {
    ClassReport r;
    r.physical_participants = physical_.size();
    r.remote_participants = remote_.size();
    r.mr_display_latency_ms = net_.metrics().series("mr.display_latency_ms");
    r.mr_cross_campus_ms = net_.metrics().series("mr.cross_campus_ms");
    r.mr_remote_origin_ms = net_.metrics().series("mr.remote_origin_ms");
    r.vr_display_latency_ms = net_.metrics().series("vr.e2e_ms");

    for (const auto& [name, count] : net_.metrics().counters()) {
        if (name.starts_with("net.tx_bytes.")) {
            r.total_bytes += count;
            if (name == "net.tx_bytes.avatar") r.avatar_bytes += count;
        }
    }
    for (const auto& room : rooms_) {
        r.wifi_utilization_max = std::max(r.wifi_utilization_max, room.wifi->utilization());
        r.seats_exhausted += room.server->seats_exhausted();
    }
    r.participation_ratio = session_.participation_ratio();
    r.event_visibility_ms = net_.metrics().series("event.visibility_ms");
    for (const auto& room : rooms_) {
        if (room.clock_sync && room.clock_sync->synchronized()) {
            r.clock_sync_error_ms = std::max(
                r.clock_sync_error_ms, room.clock_sync->estimation_error().to_ms());
        }
    }

    if (media_) {
        r.media_enabled = true;
        media_->finish();
        r.media_bytes = media_->bytes_sent();
        const double seconds = (sim_.now() - media_started_at_).to_seconds();
        r.media_worst_camera_db = media_->worst_camera_quality_db(seconds);
        math::SampleSeries skews;
        for (std::size_t i = 0; i < media_->destination_count(); ++i) {
            for (const double s : media_->sink(i).av_sync.skew_ms().samples()) {
                skews.add(s);
            }
        }
        r.media_av_skew_p95_ms = skews.p95();
    }
    return r;
}

}  // namespace mvc::core
