#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <limits>
#include <set>
#include <sstream>

#include "session/activity.hpp"

namespace mvc::scenario {

// Every key of the format is listed once, in the walk() for its section. A
// walker is a template over its `io`: the strict Reader below fills the spec
// from a JSON document, and the Writer emits every key the walker visits.
// Both offer the same verbs; a verb takes the field by reference, the Reader
// leaves the field as it is when the key is absent, and the Writer ignores
// check(), fallback() and present().

namespace {

/// Largest integer a JSON number (an IEEE double) holds exactly: 2^53.
constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 53;

[[nodiscard]] std::string elem(const std::string& path, std::size_t i) {
    return path + "[" + std::to_string(i) + "]";
}

// Round-trip-stable time conversion: the Writer emits Time as a double via
// to_seconds()/to_ms(), and Time::seconds()/ms() TRUNCATE the product, so
// ns -> double -> ns-1 is possible. Rounding recovers the exact nanosecond
// count, which the fuzzer's lossless round-trip contract depends on. A count
// that does not fit in int64 is rejected instead of wrapped.
[[nodiscard]] sim::Time time_of(double v, double unit_ns, const std::string& path) {
    const double ns = std::round(v * unit_ns);
    if (!(std::abs(ns) < 0x1p63)) throw SpecError(path, "out of range (int64 nanoseconds)");
    return sim::Time::ns(static_cast<std::int64_t>(ns));
}

[[nodiscard]] net::Region region_of(const common::Json& v, const std::string& path) {
    if (!v.is_string()) throw SpecError(path, "must be a region name string");
    const auto r = region_from_name(v.as_string());
    if (!r) throw SpecError(path, "unknown region '" + v.as_string() + "'");
    return *r;
}

// Strict reader: every read marks its key as consumed, and done() rejects
// anything left over with the full dotted path. All type errors carry the
// path too, which is what makes typos in a 200-line spec file debuggable
// instead of silently ignored.
class Reader {
public:
    Reader(const common::Json& j, std::string path) : path_(std::move(path)) {
        if (!j.is_object()) throw SpecError(path_, "must be an object");
        obj_ = &j.as_object();
    }

    /// Required, and must be the one version this build understands.
    void version(std::string_view key, int& v) {
        const common::Json* j = find(key);
        if (!j) throw SpecError(child(key), "required");
        if (!j->is_number() || j->as_number() != kSpecVersion)
            throw SpecError(child(key), "unsupported (this build understands version " +
                                            std::to_string(kSpecVersion) + ")");
        v = kSpecVersion;
    }

    void number(std::string_view key, double& v) {
        if (const common::Json* j = typed(key, &common::Json::is_number, "must be a number"))
            v = j->as_number();
    }
    void number(std::string_view key, std::optional<double>& v) {
        if (!present(key)) return;
        v.emplace();
        number(key, *v);
    }

    /// An exact integer in [0, max], also bounded by what T holds.
    template <std::integral T>
    void count(std::string_view key, T& v, std::uint64_t max = kMaxCount) {
        const common::Json* j = typed(key, &common::Json::is_number, "must be a number");
        if (!j) return;
        const double d = j->as_number();
        if (d < 0.0 || d != std::floor(d))
            throw SpecError(child(key), "must be a non-negative integer");
        max = std::min<std::uint64_t>(max, std::numeric_limits<T>::max());
        if (d > static_cast<double>(max))
            throw SpecError(child(key), "must be at most " + std::to_string(max));
        v = static_cast<T>(d);
    }
    template <std::integral T>
    void count(std::string_view key, std::optional<T>& v) {
        if (!present(key)) return;
        v.emplace();
        count(key, *v);
    }

    void boolean(std::string_view key, bool& v) {
        if (const common::Json* j = typed(key, &common::Json::is_bool, "must be a boolean"))
            v = j->as_bool();
    }

    void str(std::string_view key, std::string& v) {
        if (const common::Json* j = typed(key, &common::Json::is_string, "must be a string"))
            v = j->as_string();
    }

    void seconds(std::string_view key, sim::Time& v) {
        time(key, v, 1e9, "must be a number (seconds)");
    }
    void millis(std::string_view key, sim::Time& v) {
        time(key, v, 1e6, "must be a number (ms)");
    }
    /// Schedule lengths. Not bounded below here: the activity schedule
    /// rejects a block that is not positive when the world is built.
    void minutes(std::string_view key, sim::Time& v) {
        if (const common::Json* j = typed(key, &common::Json::is_number, "must be a number"))
            v = time_of(j->as_number() * 60.0, 1e9, child(key));
    }

    void region(std::string_view key, net::Region& v) {
        if (const common::Json* j = find(key)) v = region_of(*j, child(key));
    }

    /// An enum by canonical name; a required one rejects "" and absence.
    template <class E>
    void choice(std::string_view key, E& v, std::string_view (*name)(E),
                std::optional<E> (*parse)(std::string_view), bool required = false) {
        std::string text{required ? std::string_view{} : name(v)};
        str(key, text);
        if (required && text.empty()) throw SpecError(child(key), "required");
        const std::optional<E> e = parse(text);
        if (!e) throw SpecError(child(key), "unknown " + std::string{key} + " '" + text + "'");
        v = *e;
    }

    /// A nested object. The flag form is presence-enabled.
    template <class Walk>
    void section(std::string_view key, Walk walk) {
        const common::Json* j = find(key);
        if (!j) return;
        Reader sub{*j, child(key)};
        walk(sub);
        sub.done();
    }
    template <class Walk>
    void section(std::string_view key, bool& enabled, Walk walk) {
        if (present(key)) enabled = true;
        section(key, walk);
    }

    /// An array of objects; walk(io, item, index).
    template <class T, class Walk>
    void list(std::string_view key, std::vector<T>& items, Walk walk) {
        each(key, [&](const common::Json& j, const std::string& path) {
            Reader sub{j, path};
            T item{};
            walk(sub, item, items.size());
            sub.done();
            items.push_back(std::move(item));
        });
    }
    void list(std::string_view key, std::vector<net::Region>& items) {
        each(key, [&](const common::Json& j, const std::string& path) {
            items.push_back(region_of(j, path));
        });
    }
    /// Node references.
    void list(std::string_view key, std::vector<std::string>& items) {
        each(key, [&](const common::Json& j, const std::string& path) {
            if (!j.is_string()) throw SpecError(path, "must be a node-ref string");
            items.push_back(j.as_string());
        });
    }
    /// Node-reference pairs (links).
    void list(std::string_view key, std::vector<std::pair<std::string, std::string>>& items) {
        each(key, [&](const common::Json& j, const std::string& path) {
            if (!j.is_array() || j.as_array().size() != 2 || !j.as_array()[0].is_string() ||
                !j.as_array()[1].is_string())
                throw SpecError(path, "must be a [a, b] node-ref pair");
            items.emplace_back(j.as_array()[0].as_string(), j.as_array()[1].as_string());
        });
    }

    /// What an absent key reads as, where that differs from the struct default.
    template <class T, class U>
    void fallback(T& v, U&& absent) {
        v = std::forward<U>(absent);
    }

    [[nodiscard]] bool present(std::string_view key) const {
        return obj_->contains(std::string{key});
    }

    /// Rejects the spec at `key` (or at this object when `key` is empty).
    void check(bool ok, std::string_view key, const std::string& why) const {
        if (!ok) throw SpecError(key.empty() ? path_ : child(key), why);
    }

    void done() const {
        for (const auto& [key, value] : *obj_) {
            if (!seen_.contains(key)) throw SpecError(child(key), "unknown key");
        }
    }

private:
    const common::JsonObject* obj_;
    std::string path_;
    std::set<std::string, std::less<>> seen_;

    [[nodiscard]] std::string child(std::string_view key) const {
        return path_.empty() ? std::string{key} : path_ + "." + std::string{key};
    }

    [[nodiscard]] const common::Json* find(std::string_view key) {
        seen_.insert(std::string{key});
        const auto it = obj_->find(std::string{key});
        return it == obj_->end() ? nullptr : &it->second;
    }

    [[nodiscard]] const common::Json* typed(std::string_view key,
                                            bool (common::Json::*is)() const,
                                            const char* why) {
        const common::Json* j = find(key);
        if (j && !(j->*is)()) throw SpecError(child(key), why);
        return j;
    }

    void time(std::string_view key, sim::Time& v, double unit_ns, const char* why) {
        const common::Json* j = typed(key, &common::Json::is_number, why);
        if (!j) return;
        if (j->as_number() < 0.0) throw SpecError(child(key), "must be >= 0");
        v = time_of(j->as_number(), unit_ns, child(key));
    }

    template <class Each>
    void each(std::string_view key, Each each) {
        const common::Json* j = typed(key, &common::Json::is_array, "must be an array");
        if (!j) return;
        for (std::size_t i = 0; i < j->as_array().size(); ++i)
            each(j->as_array()[i], elem(child(key), i));
    }
};

// Emits every key the walker visits into one JSON object.
class Writer {
public:
    void version(std::string_view key, int& v) { put(key, common::Json{v}); }
    void number(std::string_view key, double& v) { put(key, common::Json{v}); }
    void number(std::string_view key, std::optional<double>& v) {
        if (v) number(key, *v);
    }
    template <std::integral T>
    void count(std::string_view key, T& v, std::uint64_t /*max*/ = kMaxCount) {
        put(key, common::Json{static_cast<double>(v)});
    }
    template <std::integral T>
    void count(std::string_view key, std::optional<T>& v) {
        if (v) count(key, *v);
    }
    void boolean(std::string_view key, bool& v) { put(key, common::Json{v}); }
    void str(std::string_view key, std::string& v) { put(key, common::Json{v}); }
    void seconds(std::string_view key, sim::Time& v) { put(key, common::Json{v.to_seconds()}); }
    void millis(std::string_view key, sim::Time& v) { put(key, common::Json{v.to_ms()}); }
    void minutes(std::string_view key, sim::Time& v) {
        put(key, common::Json{v.to_seconds() / 60.0});
    }
    void region(std::string_view key, net::Region& v) {
        put(key, common::Json{std::string{net::region_name(v)}});
    }
    template <class E>
    void choice(std::string_view key, E& v, std::string_view (*name)(E),
                std::optional<E> (*)(std::string_view), bool /*required*/ = false) {
        put(key, common::Json{std::string{name(v)}});
    }

    template <class Walk>
    void section(std::string_view key, Walk walk) {
        Writer sub;
        walk(sub);
        put(key, common::Json{std::move(sub.out_)});
    }
    template <class Walk>
    void section(std::string_view key, bool& enabled, Walk walk) {
        if (enabled) section(key, walk);
    }

    template <class T, class Walk>
    void list(std::string_view key, std::vector<T>& items, Walk walk) {
        common::JsonArray out;
        for (std::size_t i = 0; i < items.size(); ++i) {
            Writer sub;
            walk(sub, items[i], i);
            out.emplace_back(std::move(sub.out_));
        }
        put(key, common::Json{std::move(out)});
    }
    void list(std::string_view key, std::vector<net::Region>& items) {
        common::JsonArray out;
        for (const net::Region r : items) out.emplace_back(std::string{net::region_name(r)});
        put(key, common::Json{std::move(out)});
    }
    void list(std::string_view key, std::vector<std::string>& items) {
        put(key, common::Json{common::JsonArray(items.begin(), items.end())});
    }
    void list(std::string_view key, std::vector<std::pair<std::string, std::string>>& items) {
        common::JsonArray out;
        for (const auto& [a, b] : items) out.emplace_back(common::JsonArray{a, b});
        put(key, common::Json{std::move(out)});
    }

    template <class T, class U>
    void fallback(T& /*v*/, U&& /*absent*/) {}
    [[nodiscard]] bool present(std::string_view /*key*/) const { return true; }
    void check(bool /*ok*/, std::string_view /*key*/, const std::string& /*why*/) const {}
    void done() const {}

    [[nodiscard]] common::Json take() && { return common::Json{std::move(out_)}; }

private:
    common::JsonObject out_;

    void put(std::string_view key, common::Json v) { out_[std::string{key}] = std::move(v); }
};

/// A node reference or metric name that must be given and non-empty.
template <class Io>
void required(Io& io, std::string_view key, std::string& v) {
    io.str(key, v);
    io.check(!v.empty(), key, "required");
}

template <class Io>
void walk(Io& io, fault::DegradationParams& p) {
    io.number("enter_loss", p.enter_loss);
    io.number("exit_loss", p.exit_loss);
    io.number("enter_rtt_ms", p.enter_rtt_ms);
    io.number("exit_rtt_ms", p.exit_rtt_ms);
    // The policy scales rates by 2^-level in an int64 shift.
    io.count("max_level", p.max_level, 62);
    io.check(p.exit_loss <= p.enter_loss, "exit_loss",
             "must not exceed enter_loss (hysteresis gap)");
    io.check(p.enter_rtt_ms <= 0.0 || p.exit_rtt_ms <= p.enter_rtt_ms, "exit_rtt_ms",
             "must not exceed enter_rtt_ms (hysteresis gap)");
}

template <class Io>
void walk(Io& io, ClassroomSpec& c) {
    io.str("course", c.course);
    io.boolean("regional_mesh", c.regional_mesh);
    io.boolean("lightweight_remote", c.lightweight_remote);
    io.boolean("event_bus", c.event_bus);
    io.number("probe_rate_hz", c.probe_rate_hz);
    io.section("heartbeat", c.heartbeat.enabled, [&](Io& h) {
        h.millis("interval_ms", c.heartbeat.interval);
        h.millis("timeout_ms", c.heartbeat.timeout);
    });
    io.section("degradation", c.degradation.enabled, [&](Io& d) {
        walk(d, c.degradation.params);
        d.seconds("hold_s", c.degradation.params.hold);
    });
    io.section("recovery", c.recovery.enabled, [&](Io& r) {
        r.seconds("checkpoint_s", c.recovery.checkpoint_interval);
    });
    io.section("admission", c.admission.enabled, [&](Io& a) {
        recovery::AdmissionParams& p = c.admission.params;
        p.enabled = true;
        a.count("queue_capacity", p.queue_capacity);
        a.count("shed_enter_depth", p.shed_enter_depth);
        a.count("shed_exit_depth", p.shed_exit_depth);
        a.millis("hold_ms", p.hold);
        a.check(p.shed_exit_depth < p.shed_enter_depth, "shed_exit_depth",
                "must be below shed_enter_depth (hysteresis gap)");
    });
    io.list("rooms", c.rooms, [](Io& r, RoomSpec& room, std::size_t i) {
        r.str("preset", room.preset);
        r.check(room.preset.empty() || room.preset == "cwb" || room.preset == "gz",
                "preset", "must be \"cwb\" or \"gz\"");
        // Preset rooms take the paper config verbatim: their geometry keys are
        // never visited, so the reader rejects them as unknown.
        if (room.preset.empty()) {
            r.fallback(room.name, "room" + std::to_string(i + 1));
            r.str("name", room.name);
            r.region("region", room.region);
            r.count("rows", room.rows);
            r.count("cols", room.cols);
            r.check(room.rows > 0 && room.cols > 0, "rows", "rows/cols must be positive");
        }
        r.count("students", room.students);
        r.boolean("instructor", room.instructor);
    });
    io.list("remote", c.remote, [](Io& r, RemoteCohort& cohort, std::size_t) {
        r.region("region", cohort.region);
        r.count("count", cohort.count);
        r.seconds("join_at_s", cohort.join_at);
        r.boolean("guest", cohort.guest);
    });
    io.count("lecture_media_room", c.lecture_media_room);
    io.list("schedule", c.schedule, [](Io& b, ScheduleBlock& block, std::size_t) {
        b.choice("activity", block.kind, session::activity_name, activity_from_name);
        b.fallback(block.duration, sim::Time::seconds(600));
        b.minutes("minutes", block.duration);
        b.count("team_size", block.team_size);
    });
}

template <class Io>
void walk(Io& io, RelaySpec& r) {
    io.region("region", r.region);
    io.boolean("serve_resync", r.serve_resync);
    io.seconds("resync_freshness_s", r.resync_freshness);
    io.millis("access_ms", r.access_latency);
    io.millis("batch_ms", r.batch_interval);
    io.section("control", r.control.enabled, [&](Io& c) {
        c.millis("interval_ms", r.control.interval);
        c.region("region_a", r.control.region_a);
        c.region("region_b", r.control.region_b);
    });
    io.list("clients", r.clients, [](Io& c, ClientCohort& cohort, std::size_t) {
        c.count("count", cohort.count);
        c.region("region", cohort.region);
        c.seconds("join_at_s", cohort.join_at);
        ReconnectSpec& rc = cohort.reconnect;
        c.section("reconnect", rc.enabled, [&](Io& rr) {
            rr.seconds("liveness_s", rc.liveness_timeout);
            rr.millis("check_ms", rc.check_interval);
            rr.millis("probe_ms", rc.probe_timeout);
            rr.millis("backoff_base_ms", rc.backoff_base);
            rr.seconds("backoff_cap_s", rc.backoff_cap);
        });
        c.section("self_adapt", cohort.adapt.enabled, [&](Io& a) {
            walk(a, cohort.adapt.params);
            a.millis("hold_ms", cohort.adapt.params.hold);
        });
        c.str("priority", cohort.priority);
        c.check(cohort.priority == "high" || cohort.priority == "low", "priority",
                "must be \"high\" or \"low\"");
    });
}

template <class Io>
void walk(Io& io, CampusSpec& c) {
    io.list("regions", c.regions);
    io.count("clients_per_region", c.clients_per_region);
    io.millis("batch_ms", c.batch_interval);
    io.boolean("lightweight", c.lightweight);
    io.section("pooled", [&](Io& p) {
        p.count("buildings", c.pooled.buildings);
        p.count("classrooms_per_building", c.pooled.classrooms_per_building);
        p.count("avatars_per_classroom", c.pooled.avatars_per_classroom);
        p.count("viewers_per_building", c.pooled.viewers_per_building);
        p.number("tick_rate_hz", c.pooled.tick_rate_hz);
        p.boolean("aggregate", c.pooled.aggregate);
        p.millis("aggregate_ms", c.pooled.aggregate_interval);
    });
}

template <class Io>
void walk(Io& io, QoeSpec& q) {
    io.millis("feedback_ms", q.feedback_interval);
    io.millis("aggregate_ms", q.aggregate_interval);
    io.millis("playout_ms", q.playout_delay);
    io.number("safety", q.abr.safety);
    io.number("reserve_bps", q.abr.reserve_bps);
    io.number("down_loss", q.abr.down_loss);
    io.number("up_loss", q.abr.up_loss);
    io.millis("hold_down_ms", q.abr.hold_down);
    io.millis("hold_up_ms", q.abr.hold_up);
    io.millis("dwell_ms", q.abr.min_dwell);
    q.budget.safety = q.abr.safety;  // one headroom for video and avatars
    io.number("avatar_full_bps", q.budget.avatar_full_bps);
    io.number("floor_scale", q.budget.floor_scale);
    io.number("fovea_cos", q.budget.fovea_cos);
    io.done();
    io.check(q.abr.down_loss > q.abr.up_loss, "down_loss",
             "must exceed up_loss (hysteresis gap)");
}

template <class Io>
void walk(Io& io, net::ChaosProfile& p) {
    io.number("drop", p.drop);
    io.number("ge_p_bad", p.ge_p_bad);
    io.number("ge_p_good", p.ge_p_good);
    io.number("ge_loss_bad", p.ge_loss_bad);
    io.number("ge_loss_good", p.ge_loss_good);
    io.number("duplicate", p.duplicate);
    io.number("reorder", p.reorder);
    io.millis("reorder_hold_ms", p.reorder_hold);
    io.millis("delay_ms", p.delay);
    io.millis("jitter_ms", p.jitter);
    io.number("corrupt", p.corrupt);
    io.number("throttle_bps", p.throttle_bps);
    io.millis("throttle_backlog_ms", p.throttle_backlog);
}

template <class Io>
void walk(Io& io, fault::FaultModel& m) {
    io.number("flaps_per_min", m.link_flaps_per_min);
    io.seconds("mean_outage_s", m.mean_outage);
    io.number("bursts_per_min", m.loss_bursts_per_min);
    io.seconds("mean_burst_s", m.mean_burst);
    io.number("burst_loss", m.burst_loss);
    io.number("spikes_per_min", m.latency_spikes_per_min);
    io.seconds("mean_spike_s", m.mean_spike);
    io.millis("spike_extra_ms", m.spike_extra_latency);
    io.number("crashes_per_min", m.node_crashes_per_min);
    io.seconds("mean_downtime_s", m.mean_downtime);
}

template <class Io>
void walk(Io& io, TimelineEntry& e) {
    io.choice("kind", e.kind, timeline_kind_name, timeline_kind_from_name, /*required=*/true);
    if (e.kind == TimelineKind::Random) {
        io.seconds("from_s", e.from);
        io.seconds("until_s", e.until);
        io.check(e.until > e.from, "until_s", "must exceed from_s");
        io.str("stream", e.stream);
        io.check(io.present("model"), "model", "required");
        io.section("model", [&](Io& m) { walk(m, e.model); });
        io.list("links", e.links);
        io.list("nodes", e.nodes);
        io.check(!e.links.empty() || !e.nodes.empty(), "",
                 "random entry needs links and/or nodes");
        return;
    }
    io.seconds("at_s", e.at);
    io.seconds("duration_s", e.duration);
    switch (e.kind) {
        case TimelineKind::NodeOutage:
            required(io, "node", e.a);
            break;
        case TimelineKind::Blackhole:
            required(io, "from", e.a);
            required(io, "to", e.b);
            break;
        default:
            required(io, "a", e.a);
            required(io, "b", e.b);
            break;
    }
    switch (e.kind) {
        case TimelineKind::LossBurst:
            io.number("loss", e.loss);
            io.check(e.loss >= 0.0 && e.loss <= 1.0, "loss", "must be in [0, 1]");
            break;
        case TimelineKind::LatencySpike:
            io.fallback(e.extra_latency, sim::Time::ms(80));
            io.millis("extra_ms", e.extra_latency);
            break;
        case TimelineKind::ChaosWindow:
            io.check(io.present("profile"), "profile", "required");
            io.section("profile", [&](Io& p) { walk(p, e.profile); });
            io.check(e.profile.active(), "profile", "profile injects nothing");
            break;
        default:
            break;
    }
    // Every scheduled kind is a window; zero-length windows are always spec
    // bugs (reported after unknown keys).
    io.done();
    io.check(e.duration > sim::Time::zero(), "duration_s", "must be > 0");
}

template <class Io>
void walk(Io& io, SloGate& g) {
    required(io, "metric", g.metric);
    io.number("min", g.min);
    io.number("max", g.max);
    io.done();
    io.check(g.min || g.max, "", "needs min and/or max");
    io.check(!g.min || !g.max || *g.min <= *g.max, "min", "min exceeds max");
}

template <class Io>
void walk(Io& io, ScenarioSpec& s) {
    io.version("scenario_version", s.version);
    io.str("name", s.name);
    io.choice("world", s.world, world_name, world_from_name);
    io.choice("backend", s.backend, backend_name, backend_from_name);
    io.count("seed", s.seed);
    io.seconds("duration_s", s.duration);
    io.millis("hash_ms", s.hash_interval);

    // Only the active world's section may appear.
    for (const WorldKind k : {WorldKind::Classroom, WorldKind::Relay, WorldKind::Campus}) {
        const std::string key{world_name(k)};
        if (k != s.world) {
            io.check(!io.present(key), key, "section present but world is '" +
                                                std::string{world_name(s.world)} + "'");
            continue;
        }
        io.section(key, [&](Io& w) {
            switch (k) {
                case WorldKind::Classroom: walk(w, s.classroom); break;
                case WorldKind::Relay: walk(w, s.relay); break;
                case WorldKind::Campus: walk(w, s.campus); break;
            }
        });
    }
    io.section("qoe", s.qoe.enabled, [&](Io& q) { walk(q, s.qoe); });
    io.list("timeline", s.timeline, [](Io& t, TimelineEntry& e, std::size_t) { walk(t, e); });
    io.list("slos", s.slos, [](Io& g, SloGate& gate, std::size_t) { walk(g, gate); });
}

}  // namespace

std::string_view world_name(WorldKind kind) {
    switch (kind) {
        case WorldKind::Classroom: return "classroom";
        case WorldKind::Relay: return "relay";
        case WorldKind::Campus: return "campus";
    }
    return "?";
}

std::optional<WorldKind> world_from_name(std::string_view name) {
    for (const WorldKind k : {WorldKind::Classroom, WorldKind::Relay, WorldKind::Campus})
        if (world_name(k) == name) return k;
    return std::nullopt;
}

std::string_view backend_name(BackendKind kind) {
    switch (kind) {
        case BackendKind::Sim: return "sim";
        case BackendKind::Chaos: return "chaos";
        case BackendKind::RealUdp: return "real_udp";
    }
    return "?";
}

std::optional<BackendKind> backend_from_name(std::string_view name) {
    for (const BackendKind k :
         {BackendKind::Sim, BackendKind::Chaos, BackendKind::RealUdp})
        if (backend_name(k) == name) return k;
    return std::nullopt;
}

std::string_view timeline_kind_name(TimelineKind kind) {
    switch (kind) {
        case TimelineKind::LinkOutage: return "link_outage";
        case TimelineKind::LossBurst: return "loss_burst";
        case TimelineKind::LatencySpike: return "latency_spike";
        case TimelineKind::NodeOutage: return "node_outage";
        case TimelineKind::ChaosWindow: return "chaos";
        case TimelineKind::Blackhole: return "blackhole";
        case TimelineKind::Partition: return "partition";
        case TimelineKind::Random: return "random";
    }
    return "?";
}

std::optional<TimelineKind> timeline_kind_from_name(std::string_view name) {
    for (const TimelineKind k :
         {TimelineKind::LinkOutage, TimelineKind::LossBurst, TimelineKind::LatencySpike,
          TimelineKind::NodeOutage, TimelineKind::ChaosWindow, TimelineKind::Blackhole,
          TimelineKind::Partition, TimelineKind::Random})
        if (timeline_kind_name(k) == name) return k;
    return std::nullopt;
}

std::optional<net::Region> region_from_name(std::string_view name) {
    for (const net::Region r : net::all_regions())
        if (net::region_name(r) == name) return r;
    return std::nullopt;
}

std::optional<session::ActivityKind> activity_from_name(std::string_view name) {
    using session::ActivityKind;
    for (const ActivityKind k :
         {ActivityKind::Lecture, ActivityKind::Qa, ActivityKind::GamifiedBreakout,
          ActivityKind::LearnerPresentation, ActivityKind::VirtualLab})
        if (session::activity_name(k) == name) return k;
    return std::nullopt;
}

ScenarioSpec scenario_from_json(const common::Json& doc) {
    Reader reader{doc, ""};
    ScenarioSpec spec;
    walk(reader, spec);
    reader.done();
    validate_spec(spec);
    return spec;
}

ScenarioSpec scenario_from_text(std::string_view text) {
    common::Json doc;
    try {
        doc = common::Json::parse(text);
    } catch (const common::JsonParseError& err) {
        // Re-throw with line/column context so a broken spec file points at
        // the offending line, not a byte offset.
        const std::size_t offset = std::min(err.offset(), text.size());
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < offset; ++i) {
            if (text[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        std::ostringstream msg;
        msg << "invalid JSON at line " << line << ", column " << col << ": "
            << err.what();
        throw SpecError("", msg.str());
    }
    return scenario_from_json(doc);
}

void validate_spec(const ScenarioSpec& spec) {
    using common::Json;
    if (spec.version != kSpecVersion)
        throw SpecError("scenario_version", "unsupported");
    if (spec.duration <= sim::Time::zero())
        throw SpecError("duration_s", "must be > 0");
    if (spec.name.empty()) throw SpecError("name", "must not be empty");

    const bool chaos_ok = spec.world == WorldKind::Relay;
    switch (spec.world) {
        case WorldKind::Classroom:
            if (spec.backend != BackendKind::Sim)
                throw SpecError("backend",
                                "classroom world runs on the sim backend only "
                                "(the classroom owns its net::Network)");
            break;
        case WorldKind::Relay:
            if (spec.relay.clients.empty())
                throw SpecError("relay.clients", "needs at least one cohort");
            if (spec.backend == BackendKind::RealUdp && !spec.timeline.empty())
                throw SpecError("timeline",
                                "real_udp backend cannot schedule faults "
                                "(no simulated links to fail)");
            break;
        case WorldKind::Campus:
            if (spec.backend != BackendKind::Sim)
                throw SpecError("backend", "campus world runs on the sim backend only");
            if (spec.campus.pooled.buildings > 0) {
                if (!spec.campus.regions.empty())
                    throw SpecError("campus.regions",
                                    "pooled campus declares buildings, not regions");
                if (!spec.timeline.empty())
                    throw SpecError("timeline",
                                    "faults are not supported on the pooled campus");
                const PooledCampusSpec& p = spec.campus.pooled;
                if (p.classrooms_per_building == 0 || p.avatars_per_classroom == 0)
                    throw SpecError("campus.pooled", "buildings must hold avatars");
                if (p.tick_rate_hz <= 0.0)
                    throw SpecError("campus.pooled.tick_rate_hz", "must be > 0");
            } else if (spec.campus.regions.empty()) {
                throw SpecError("campus.regions", "needs at least one region");
            }
            // One relay shard per region: a repeat would be a second shard
            // with the same relay name, unreachable as relay/<region>.
            for (auto it = spec.campus.regions.begin(); it != spec.campus.regions.end(); ++it) {
                if (std::find(spec.campus.regions.begin(), it, *it) != it)
                    throw SpecError("campus.regions", "region '" +
                                    std::string{net::region_name(*it)} + "' listed twice");
            }
            break;
    }

    if (spec.qoe.enabled) {
        if (spec.world != WorldKind::Relay)
            throw SpecError("qoe", "the QoE control loop runs on the relay world only");
        if (spec.backend == BackendKind::RealUdp)
            throw SpecError("qoe",
                            "qoe payloads have no real-wire codecs (sim/chaos only)");
        if (spec.qoe.feedback_interval <= sim::Time::zero())
            throw SpecError("qoe.feedback_ms", "must be > 0");
        if (spec.qoe.aggregate_interval <= sim::Time::zero())
            throw SpecError("qoe.aggregate_ms", "must be > 0");
    }

    if (spec.world == WorldKind::Classroom) {
        const std::size_t room_count =
            spec.classroom.rooms.empty() ? 2 : spec.classroom.rooms.size();
        for (std::size_t i = 0; i < spec.classroom.rooms.size(); ++i) {
            const RoomSpec& room = spec.classroom.rooms[i];
            // Preset rooms defer capacity to the paper config (the seats
            // counter reports exhaustion at run time).
            if (room.preset.empty() && room.students > room.rows * room.cols)
                throw SpecError(elem("classroom.rooms", i) + ".students",
                                "exceed seat capacity");
        }
        if (spec.classroom.lecture_media_room &&
            *spec.classroom.lecture_media_room >= room_count)
            throw SpecError("classroom.lecture_media_room", "out of range");
        // The ladder ticks on the heartbeat interval: without heartbeats a
        // degradation block would never act.
        if (spec.classroom.degradation.enabled && !spec.classroom.heartbeat.enabled)
            throw SpecError("classroom.degradation", "needs classroom.heartbeat");
    }

    for (std::size_t i = 0; i < spec.timeline.size(); ++i) {
        const TimelineEntry& e = spec.timeline[i];
        const std::string path = elem("timeline", i);
        switch (e.kind) {
            case TimelineKind::ChaosWindow:
            case TimelineKind::Blackhole:
            case TimelineKind::Partition:
                if (!chaos_ok || spec.backend != BackendKind::Chaos)
                    throw SpecError(path, std::string{timeline_kind_name(e.kind)} +
                                              " needs world=relay, backend=chaos");
                break;
            case TimelineKind::Random:
                if (spec.world == WorldKind::Campus)
                    throw SpecError(path, "random faults are not supported on the "
                                          "sharded campus world");
                break;
            default:
                break;
        }
    }
}

common::Json spec_to_json(const ScenarioSpec& spec) {
    ScenarioSpec copy = spec;
    Writer writer;
    walk(writer, copy);
    return std::move(writer).take();
}

std::string spec_stamp(const ScenarioSpec& spec) {
    std::ostringstream out;
    out << "scenario:" << spec.name << " v" << spec.version << " world="
        << world_name(spec.world) << " backend=" << backend_name(spec.backend)
        << " seed=" << spec.seed << " dur_s=" << spec.duration.to_seconds();
    return out.str();
}

}  // namespace mvc::scenario
