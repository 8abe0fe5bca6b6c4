#pragma once
// ScenarioWorld: one ScenarioSpec, built. scenario::build(spec) assembles
// the declared deployment — a MetaverseClassroom, a relay + VR-client
// cluster (on the sim Network, under a ChaosBackend, or over real UDP
// loopback), or a sharded multi-region campus — enrols the cohorts,
// schedules the late-join load events, compiles and arms the fault
// timeline, and wires the per-epoch state-hash stream. Callers may attach
// extra probes to the simulator before run(); run() drives the declared
// duration and stop() tears the session down.
//
// The world exposes its underlying objects (classroom(), relay(),
// client(i), chaos()) so benches can keep their domain-specific probes
// while all topology/fault construction lives in the spec.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "scenario/timeline.hpp"

namespace mvc::core {
class MetaverseClassroom;
}  // namespace mvc::core
namespace mvc::cloud {
class RelayServer;
class VrClient;
}  // namespace mvc::cloud
namespace mvc::net {
class ChaosBackend;
class Backend;
}  // namespace mvc::net
namespace mvc::replay {
class Recorder;
}  // namespace mvc::replay
namespace mvc::sim {
class Simulator;
class MetricsRecorder;
}  // namespace mvc::sim

namespace mvc::scenario {

class ScenarioWorld {
public:
    explicit ScenarioWorld(ScenarioSpec spec);
    ~ScenarioWorld();

    ScenarioWorld(const ScenarioWorld&) = delete;
    ScenarioWorld& operator=(const ScenarioWorld&) = delete;

    [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }

    /// Record the run into `rec` (classroom world only for now; taps the
    /// network egress + per-epoch state hashes). Call before run().
    void enable_recording(replay::Recorder& rec);

    /// Drive the world for the spec's full duration and return the number
    /// of events executed (0 on the wall-clock real_udp backend). `threads`
    /// applies to the campus world only (the single-simulator worlds ignore
    /// it).
    std::size_t run(std::size_t threads = 1);
    /// Tear the session down (clients leave, classroom stops). Called by
    /// the destructor when not called explicitly.
    void stop();

    /// Per-epoch state-hash stream (every spec.hash_interval): classroom =
    /// mix of edge + cloud digests, relay = AvatarMirror digest, campus =
    /// origin cloud digest. The determinism gates byte-compare this.
    [[nodiscard]] const std::vector<std::uint64_t>& hashes() const { return hashes_; }

    /// Deterministic snapshot of the world's metrics plus scenario counters
    /// ("scenario.hash_epochs", control-pair and chaos counters, client
    /// aggregates) — the input to SLO evaluation and the BENCH export.
    [[nodiscard]] sim::MetricsRecorder collect_metrics() const;

    /// Expand a symbolic timeline node ref ("edge/1", "client/*", "relay",
    /// "cloud", "relay/Seoul", "ctrl/a"). Throws SpecError when unknown.
    [[nodiscard]] std::vector<ResolvedNode> resolve(const std::string& ref) const;

    // ------------------------------------------------- underlying objects
    /// Simulator driving shard 0 (the only shard for classroom/relay).
    /// Throws for the real_udp backend (wall-clock; use backend().clock()).
    [[nodiscard]] sim::Simulator& simulator();
    [[nodiscard]] net::Backend& backend();

    [[nodiscard]] core::MetaverseClassroom& classroom();
    [[nodiscard]] cloud::RelayServer& relay();
    [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
    [[nodiscard]] cloud::VrClient& client(std::size_t i);
    /// Chaos interposer; nullptr unless backend == chaos.
    [[nodiscard]] net::ChaosBackend* chaos();
    [[nodiscard]] fault::FaultPlan* plan(std::size_t shard = 0);

    [[nodiscard]] std::uint64_t ctrl_sent() const { return ctrl_sent_; }
    [[nodiscard]] std::uint64_t ctrl_delivered() const { return ctrl_delivered_; }

private:
    struct ClassroomState;
    struct RelayState;
    struct CampusState;

    void build_classroom();
    void build_relay();
    void build_campus();
    void arm_timeline();
    void schedule_hashes();

    ScenarioSpec spec_;
    std::vector<std::uint64_t> hashes_;
    std::uint64_t ctrl_sent_{0};
    std::uint64_t ctrl_delivered_{0};
    bool stopped_{false};

    // Exactly one of these is populated, per spec_.world. The states own
    // the simulators/backends/servers in construction order so teardown
    // (reverse order) drops clients before the transport they reference.
    std::unique_ptr<ClassroomState> classroom_state_;
    std::unique_ptr<RelayState> relay_state_;
    std::unique_ptr<CampusState> campus_state_;

    std::vector<cloud::VrClient*> clients_;  // non-owning views, join order

    // One FaultPlan per shard, created lazily by the timeline compiler.
    // Declared after the states so plans (which reference the networks)
    // are destroyed first.
    std::vector<std::unique_ptr<fault::FaultPlan>> plans_;
};

/// The one entry point: validate + build. Throws SpecError on an invalid
/// spec (validate_spec rules) or unresolvable timeline refs.
[[nodiscard]] std::unique_ptr<ScenarioWorld> build(const ScenarioSpec& spec);

}  // namespace mvc::scenario
