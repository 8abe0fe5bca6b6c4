#pragma once
// Overload admission control for edge/cloud ingress. The server's ingress
// queue is bounded (drop-oldest); on top of it the AdmissionGate watches
// queue depth with the same sim::Hysteresis as fault::DegradationPolicy:
// depth at/above `shed_enter_depth` for `hold` starts shedding, depth
// at/below `shed_exit_depth` for `hold` stops. While shedding, the server
// rejects *new* (late-joining, low-priority) avatar streams but keeps
// already-admitted streams flowing, so overload degrades the experience of
// newcomers instead of everyone.
//
// AvatarIngress is that ingress, shared by the edge and cloud servers.

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "sim/hysteresis.hpp"
#include "sim/time.hpp"
#include "sync/wire.hpp"

namespace mvc::recovery {

struct AdmissionParams {
    bool enabled{false};
    /// Bounded ingress queue capacity (packets); oldest dropped on overflow.
    std::size_t queue_capacity{256};
    /// Queue depth at/above which the gate starts shedding after `hold`.
    std::size_t shed_enter_depth{192};
    /// Queue depth at/below which the gate stops shedding after `hold`;
    /// must be below `shed_enter_depth`.
    std::size_t shed_exit_depth{64};
    /// How long depth must stay past a threshold before the gate acts.
    sim::Time hold{sim::Time::ms(50.0)};
};

class AdmissionGate {
public:
    /// Throws std::invalid_argument unless shed_exit_depth < shed_enter_depth.
    explicit AdmissionGate(AdmissionParams params = {});

    /// Feed one queue-depth observation at simulated time `now`; returns
    /// true when the shedding state flipped.
    bool update(std::size_t depth, sim::Time now);

    [[nodiscard]] bool shedding() const { return shedding_; }
    /// Total shed-state flips (enter + exit) — a flap counter for tests.
    [[nodiscard]] std::uint64_t transitions() const { return transitions_; }
    [[nodiscard]] const AdmissionParams& params() const { return params_; }

private:
    AdmissionParams params_;
    bool shedding_{false};
    std::uint64_t transitions_{0};
    sim::Hysteresis hysteresis_;
};

/// The avatar ingress of a classroom server (DESIGN §6). It registers the
/// `avatar` and `avatar.batch` flows on the server's demux, counts every
/// arriving wire, charges its compute through the server's ChargeFn, and
/// hands it to the server's ProcessFn at the returned ready time. A wire
/// stays in the payload box it arrived in (DESIGN §9.8). With admission on,
/// wires wait in a bounded drop-oldest FIFO ring behind an AdmissionGate
/// that sheds never-seen streams while it is shedding; a shed wire is
/// charged no compute. With admission off, each wire is scheduled directly
/// and the queue stays empty.
class AvatarIngress {
public:
    /// Charge one wire's compute on the server; returns when it is done.
    using ChargeFn = std::function<sim::Time()>;
    /// Process the wire boxed in `update` (a box other receivers of the
    /// packet may share); `src` sent the packet at `sent_at`.
    using ProcessFn =
        std::function<void(net::Payload&& update, net::NodeId src, sim::Time sent_at)>;

    /// `server` labels the admission and queue metrics.
    AvatarIngress(net::Backend& net, net::PacketDemux& demux, std::string server,
                  AdmissionParams params, ChargeFn charge, ProcessFn process);

    AvatarIngress(const AvatarIngress&) = delete;
    AvatarIngress& operator=(const AvatarIngress&) = delete;

    /// Process crash: drops the queue, the admitted set and every wire
    /// already charged, so no work from before the crash runs after it.
    void crash();

    [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }
    [[nodiscard]] const AdmissionGate& gate() const { return gate_; }
    [[nodiscard]] std::uint64_t shed() const { return shed_; }
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
    [[nodiscard]] std::size_t depth() const { return depth_; }
    [[nodiscard]] std::size_t admitted() const { return admitted_.size(); }

private:
    struct Queued {
        net::Payload update;
        net::NodeId src{};
        sim::Time sent_at{};
    };

    net::Backend& net_;
    std::string server_;
    ChargeFn charge_;
    ProcessFn process_;
    sim::MetricId shed_id_;
    sim::MetricId dropped_id_;
    sim::MetricId depth_id_;
    AdmissionGate gate_;
    /// The queue: `depth_` wires from `head_` on, wrapping. The ring grows
    /// by doubling to the depth reached, never past queue_capacity.
    std::vector<Queued> ring_;
    std::size_t head_{0};
    std::size_t depth_{0};
    std::set<ParticipantId> admitted_;
    std::uint64_t arrivals_{0};
    std::uint64_t shed_{0};
    std::uint64_t dropped_{0};
    /// Bumped by crash(); scheduled work from an older epoch does nothing.
    std::uint32_t epoch_{0};

    void ingest(net::Payload&& update, net::NodeId src, sim::Time sent_at);
    void push(Queued&& q);
};

}  // namespace mvc::recovery
