#pragma once
// Periodic checkpoint driver. The owning server supplies a capture function
// that fills a ClassroomCheckpoint from its live state; the Checkpointer
// runs it on a fixed cadence, stamps a monotonic sequence number, encodes
// (checksummed, versioned — see checkpoint.hpp) and writes the result into
// the CheckpointStore. Pause/resume brackets a simulated crash: a down
// process takes no checkpoints, but the store keeps what it already wrote.
// Restorer is the matching restart step: restore the latest checkpoint, or
// cold-start when there is none.

#include <functional>
#include <string>

#include "recovery/checkpoint.hpp"
#include "recovery/store.hpp"
#include "sim/metrics.hpp"
#include "sim/clock.hpp"

namespace mvc::recovery {

struct RecoveryParams {
    bool enabled{false};
    /// Take periodic checkpoints. Off (with enabled=true) is the
    /// no-checkpoint baseline: crashes still wipe replicated state, but
    /// every restart is a cold start.
    bool checkpoints{true};
    /// Ask live peers for a state snapshot after restart (one round trip).
    bool resync{true};
    /// Cadence of periodic checkpoints.
    sim::Time checkpoint_interval{sim::Time::seconds(2.0)};
    /// Checkpoints retained per owner in the store.
    std::size_t retain{3};
    /// Shared durable store; must outlive the servers. When null with
    /// enabled=true the owner allocates nothing and checkpointing is off.
    CheckpointStore* store{nullptr};
};

class Checkpointer {
public:
    using CaptureFn = std::function<void(ClassroomCheckpoint&)>;

    Checkpointer(sim::Clock& clock, sim::MetricsRecorder& metrics,
                 RecoveryParams params, std::string owner, CaptureFn capture);
    ~Checkpointer();

    Checkpointer(const Checkpointer&) = delete;
    Checkpointer& operator=(const Checkpointer&) = delete;

    void start();
    void pause();   // crash: stop taking checkpoints
    void resume();  // restart: resume the cadence from now

    /// Take one checkpoint immediately (also used by the periodic task).
    void checkpoint_now();

    [[nodiscard]] std::uint64_t taken() const { return taken_; }
    [[nodiscard]] std::uint64_t next_sequence() const { return next_sequence_; }
    [[nodiscard]] const RecoveryParams& params() const { return params_; }
    [[nodiscard]] const std::string& owner() const { return owner_; }

private:
    sim::Clock& sim_;
    sim::MetricsRecorder& metrics_;
    RecoveryParams params_;
    std::string owner_;
    sim::MetricId checkpoint_bytes_id_;
    sim::MetricId checkpoint_id_;
    CaptureFn capture_;
    sim::EventHandle task_{};
    bool running_{false};
    std::uint64_t next_sequence_{1};
    std::uint64_t taken_{0};
};

/// The restart step of a classroom server (DESIGN §6). On a node restart it
/// looks up the owner's latest checkpoint, decodes it and hands it to the
/// server's ApplyFn; without a checkpoint, or when it fails to decode, the
/// restart is a cold start. Outcomes are counted under
/// `recovery.{restore,cold_start,gap_ms}{server=…}`.
class Restorer {
public:
    using ApplyFn = std::function<void(ClassroomCheckpoint&&)>;

    Restorer(sim::Clock& clock, sim::MetricsRecorder& metrics, const std::string& server);

    /// Restore from `source`'s latest checkpoint (`source` null: the server
    /// takes none, so every restart is cold).
    void restart(const Checkpointer* source, const ApplyFn& apply);

    [[nodiscard]] std::uint64_t restores() const { return restores_; }
    [[nodiscard]] std::uint64_t cold_starts() const { return cold_starts_; }
    [[nodiscard]] double last_gap_ms() const { return last_gap_ms_; }

private:
    sim::Clock& clock_;
    sim::MetricsRecorder& metrics_;
    sim::MetricId gap_ms_id_;
    sim::MetricId restore_id_;
    sim::MetricId cold_start_id_;
    std::uint64_t restores_{0};
    std::uint64_t cold_starts_{0};
    double last_gap_ms_{0.0};
};

}  // namespace mvc::recovery
