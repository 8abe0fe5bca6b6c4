#pragma once
// ScenarioSpec — the versioned declarative description of one experiment
// run: which world to build (a blended classroom, a relay + VR-client
// cluster, or a sharded multi-region campus), which transport backend to
// run it on (the discrete-event Network, the ChaosBackend interposer, or
// the real UDP loopback), the cohorts that populate it, the fault & load
// timeline that batters it, and the SLO gates the run must hold.
//
// Specs are data: a `.scenario.json` file (or an inline JSON string) parses
// into this struct through a *strict* loader — unknown keys are rejected
// with the offending field's path, type mismatches name the field, and
// JSON syntax errors carry line/column context — and serializes back out
// through spec_to_json() losslessly, which is what the round-trip tests and
// the mutation fuzzer rely on.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "fault/degradation.hpp"
#include "fault/fault_plan.hpp"
#include "net/chaos.hpp"
#include "net/topology.hpp"
#include "qoe/abr.hpp"
#include "qoe/budget.hpp"
#include "recovery/admission.hpp"
#include "session/session.hpp"
#include "sim/time.hpp"

namespace mvc::scenario {

/// Schema violation: `path` is the dotted field path ("timeline[2].loss"),
/// and what() carries path + reason (+ line/column for syntax errors).
class SpecError : public std::runtime_error {
public:
    SpecError(std::string path, const std::string& why)
        : std::runtime_error("scenario: " + (path.empty() ? why : path + ": " + why)),
          path_(std::move(path)) {}
    [[nodiscard]] const std::string& path() const { return path_; }

private:
    std::string path_;
};

inline constexpr int kSpecVersion = 1;

enum class WorldKind : std::uint8_t { Classroom, Relay, Campus };
enum class BackendKind : std::uint8_t { Sim, Chaos, RealUdp };

[[nodiscard]] std::string_view world_name(WorldKind kind);
[[nodiscard]] std::optional<WorldKind> world_from_name(std::string_view name);
[[nodiscard]] std::string_view backend_name(BackendKind kind);
[[nodiscard]] std::optional<BackendKind> backend_from_name(std::string_view name);

// ------------------------------------------------------- classroom world

/// One physical MR room. A non-empty `preset` ("cwb"/"gz") uses the paper's
/// deployment config verbatim — geometry keys are rejected for preset rooms
/// so spec-built worlds stay byte-equivalent to the historical defaults —
/// and only the occupancy fields (students/instructor) apply.
struct RoomSpec {
    std::string preset;  ///< "", "cwb" or "gz"
    std::string name;    ///< custom rooms only; defaults to "room<N>"
    net::Region region{net::Region::HongKong};
    std::size_t rows{5};
    std::size_t cols{6};
    std::size_t students{0};
    bool instructor{false};
};

/// Remote attendees joining the VR classroom from one region. A nonzero
/// `join_at` makes this a *load* event: the cohort enrols mid-run (flash
/// crowds, late joiners).
struct RemoteCohort {
    net::Region region{net::Region::Seoul};
    std::size_t count{1};
    sim::Time join_at{};
    bool guest{false};  ///< enrol as guest speakers instead of students
};

struct ScheduleBlock {
    session::ActivityKind kind{session::ActivityKind::Lecture};
    sim::Time duration{};
    std::size_t team_size{0};
};

struct HeartbeatSpec {
    bool enabled{false};
    sim::Time interval{sim::Time::ms(100)};
    sim::Time timeout{sim::Time::ms(350)};
};

struct DegradationSpec {
    bool enabled{false};
    fault::DegradationParams params{};
};

struct RecoverySpec {
    bool enabled{false};
    sim::Time checkpoint_interval{sim::Time::seconds(2.0)};
};

struct AdmissionSpec {
    bool enabled{false};
    recovery::AdmissionParams params{};
};

struct ClassroomSpec {
    std::string course{"Metaverse Classroom"};
    bool regional_mesh{false};
    bool lightweight_remote{false};
    bool event_bus{true};
    double probe_rate_hz{10.0};
    HeartbeatSpec heartbeat{};
    DegradationSpec degradation{};
    RecoverySpec recovery{};
    AdmissionSpec admission{};
    /// Empty => the CWB + GZ default deployment (6 students + instructor /
    /// 6 students), matching the historical loader.
    std::vector<RoomSpec> rooms;
    std::vector<RemoteCohort> remote;
    std::optional<std::size_t> lecture_media_room;
    std::vector<ScheduleBlock> schedule;
};

// ----------------------------------------------------------- relay world

struct ReconnectSpec {
    bool enabled{false};
    sim::Time liveness_timeout{sim::Time::seconds(2.0)};
    sim::Time check_interval{sim::Time::ms(100)};
    sim::Time probe_timeout{sim::Time::ms(500)};
    sim::Time backoff_base{sim::Time::ms(100)};
    sim::Time backoff_cap{sim::Time::seconds(2.0)};
};

struct SelfAdaptSpec {
    bool enabled{false};
    fault::DegradationParams params{};
};

/// A group of VR clients attached to the relay. `join_at` > 0 delays the
/// whole cohort's join (load timeline).
struct ClientCohort {
    std::size_t count{1};
    net::Region region{net::Region::HongKong};
    sim::Time join_at{};
    ReconnectSpec reconnect{};
    SelfAdaptSpec adapt{};
    /// QoE priority class ("high" or "low"): stamps this cohort's QoE
    /// metrics and maps to the video channel's accounting class (Realtime
    /// vs Bulk). Only meaningful when the spec's qoe block is enabled.
    std::string priority{"high"};
};

/// Optional ARQ control pair riding the same adversity as the clients —
/// the exactly-once delivery probe of the chaos soaks ("ctrl/a", "ctrl/b").
struct ControlSpec {
    bool enabled{false};
    sim::Time interval{sim::Time::ms(20)};
    net::Region region_a{net::Region::HongKong};
    net::Region region_b{net::Region::Guangzhou};
};

struct RelaySpec {
    net::Region region{net::Region::HongKong};
    bool serve_resync{true};
    sim::Time resync_freshness{sim::Time::seconds(2.0)};
    sim::Time access_latency{sim::Time::ms(8)};
    sim::Time batch_interval{};
    ControlSpec control{};
    std::vector<ClientCohort> clients;
};

// ---------------------------------------------------------- campus world

/// Dense pooled campus (core::CampusWorld, E22): one building per shard,
/// each sweeping SoA avatar pools through a flat interest grid with
/// cell-delta aggregated (or per-update baseline) egress. Enabled when
/// `buildings` > 0, replacing the relay + VR-client campus — the validator
/// then requires `regions` to be empty and the timeline unused.
struct PooledCampusSpec {
    std::size_t buildings{0};
    std::size_t classrooms_per_building{25};
    std::size_t avatars_per_classroom{100};
    std::size_t viewers_per_building{8};
    double tick_rate_hz{20.0};
    bool aggregate{true};
    sim::Time aggregate_interval{sim::Time::ms(50)};
};

/// E16's sharded deployment (core::RegionalDeployment): the origin cloud is
/// shard 0, one relay shard per region, lightweight VR clients spread
/// round-robin. Regions may not repeat.
struct CampusSpec {
    std::vector<net::Region> regions;
    std::size_t clients_per_region{8};
    sim::Time batch_interval{sim::Time::ms(20)};
    bool lightweight{true};
    PooledCampusSpec pooled{};
};

// -------------------------------------------------------- qoe control loop

/// Adaptive streaming + QoE control loop (src/qoe, E23). Relay world only:
/// the relay runs a qoe::QoeService (per-client video ladder + feedback
/// actuation), every client runs a qoe::MediaClient (ABR + budget + score),
/// and the relay's egress aggregation is forced on so the gaze/scale
/// feedback has tier clocks to drive.
struct QoeSpec {
    bool enabled{false};
    sim::Time feedback_interval{sim::Time::ms(250)};
    /// Relay egress aggregation interval while qoe is on.
    sim::Time aggregate_interval{sim::Time::ms(50)};
    sim::Time playout_delay{sim::Time::ms(200)};
    qoe::AbrParams abr{};
    qoe::BudgetParams budget{};
};

// -------------------------------------------------------- fault timeline

enum class TimelineKind : std::uint8_t {
    LinkOutage,
    LossBurst,
    LatencySpike,
    NodeOutage,
    ChaosWindow,
    Blackhole,
    Partition,
    Random,
};

[[nodiscard]] std::string_view timeline_kind_name(TimelineKind kind);
[[nodiscard]] std::optional<TimelineKind> timeline_kind_from_name(std::string_view name);

/// One scheduled adversity window. Endpoints are *symbolic* node
/// references resolved against the built world:
///   classroom:  "cloud", "edge/<index>", "edge/<room-name>"
///   relay:      "relay", "client/<index>", "client/*", "ctrl/a", "ctrl/b"
///   campus:     "cloud", "relay/<region>", "client/<index>"  (same shard only)
struct TimelineEntry {
    TimelineKind kind{TimelineKind::LinkOutage};
    sim::Time at{};
    sim::Time duration{};
    std::string a;  ///< first endpoint; crash/restart node for NodeOutage
    std::string b;  ///< second endpoint (unused for NodeOutage)
    double loss{0.25};                      ///< LossBurst
    sim::Time extra_latency{};              ///< LatencySpike
    net::ChaosProfile profile{};            ///< ChaosWindow
    // Random (Poisson arrival model over explicit links/nodes):
    fault::FaultModel model{};
    std::vector<std::pair<std::string, std::string>> links;
    std::vector<std::string> nodes;
    std::string stream{"fault"};
    sim::Time from{};
    sim::Time until{};
};

// ------------------------------------------------------------- SLO gates

/// Declarative pass/fail bound on one exported metric. `metric` is either
/// a counter name ("chaos.drop") or "<series>.<stat>" where stat is one of
/// count/mean/min/max/p50/p95/p99 ("vr.e2e_ms.p95").
struct SloGate {
    std::string metric;
    std::optional<double> min;
    std::optional<double> max;
};

// ------------------------------------------------------------- the spec

struct ScenarioSpec {
    int version{kSpecVersion};
    std::string name{"scenario"};
    WorldKind world{WorldKind::Classroom};
    BackendKind backend{BackendKind::Sim};
    std::uint64_t seed{42};
    sim::Time duration{sim::Time::seconds(60)};
    /// Cadence of the per-epoch state-hash stream (the determinism /
    /// divergence comparison unit). Zero disables hashing.
    sim::Time hash_interval{sim::Time::ms(100)};
    ClassroomSpec classroom{};
    RelaySpec relay{};
    CampusSpec campus{};
    QoeSpec qoe{};
    std::vector<TimelineEntry> timeline;
    std::vector<SloGate> slos;
};

/// Parse a region / activity by canonical name.
[[nodiscard]] std::optional<net::Region> region_from_name(std::string_view name);
[[nodiscard]] std::optional<session::ActivityKind> activity_from_name(
    std::string_view name);

/// Build a spec from a JSON document. Strict: unknown keys, type errors and
/// cross-field violations throw SpecError with the field's path.
[[nodiscard]] ScenarioSpec scenario_from_json(const common::Json& doc);

/// Parse text then build. JSON syntax errors are rethrown as SpecError with
/// "line L, column C" context computed from the parser's byte offset.
[[nodiscard]] ScenarioSpec scenario_from_text(std::string_view text);

/// Lossless serialization: scenario_from_json(spec_to_json(s)) == s. Fields
/// equal to their defaults are still emitted for schema discoverability.
[[nodiscard]] common::Json spec_to_json(const ScenarioSpec& spec);

/// Cross-field validation (world/backend compatibility, room capacities,
/// timeline endpoint kinds). Called by the parser; call it directly after
/// mutating a spec programmatically. Throws SpecError.
void validate_spec(const ScenarioSpec& spec);

/// Canonical one-line stamp for traces recorded from this spec
/// ("scenario:<name> v1 world=classroom seed=20 dur_s=42").
[[nodiscard]] std::string spec_stamp(const ScenarioSpec& spec);

}  // namespace mvc::scenario
