#pragma once
// Session recorder: taps every backend's packet stream (one tap per shard,
// egress on the simulated Network, ingress on the real UDP backend), stages
// encoded Wire records in per-shard buffers, and drains them into a chunked
// TraceWriter at epoch boundaries. Staging is what keeps two invariants:
//
//  - Zero steady-state allocations per send (the PR-4 contract): the tap
//    appends varints into a pre-reserved, capacity-retaining vector and
//    interns each flow name exactly once. Only a first-sighting of a flow or
//    a buffer high-water growth allocates — both amortize to zero.
//  - Thread safety under the sharded engine: each staging buffer is written
//    only by the thread running its shard within an epoch; the drain (and
//    every writer touch) happens in the ShardSet epoch observer, which runs
//    single-threaded inside the barrier. Records carry absolute timestamps,
//    so concatenating per-shard batches in shard order is losslessly
//    re-sortable on read.
//
// Beyond wire capture the recorder mirrors recovery checkpoints from a
// CheckpointStore (seek keyframes) and records per-epoch state hashes (the
// divergence checker's input). Sink errors are sticky: recording disables
// itself and error() reports the first failure; nothing propagates into the
// simulation.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/backend.hpp"
#include "replay/trace.hpp"
#include "sim/time.hpp"

namespace mvc::recovery {
class CheckpointStore;
}
namespace mvc::sim {
class Simulator;
}

namespace mvc::replay {

struct RecorderOptions {
    std::size_t chunk_bytes{64 * 1024};
    /// Capture avatar payload bytes (needed for lecture playback). Off, the
    /// trace still carries wire envelopes, hashes, and checkpoints — enough
    /// for the divergence checker at a fraction of the size.
    bool capture_payloads{true};
    /// Initial capacity of each shard's staging buffer.
    std::size_t stage_reserve_bytes{256 * 1024};
};

class Recorder {
public:
    /// `stamp` is the free-form scenario/config description replay tooling
    /// uses to rebuild the run (also shown by `metaclass_trace stat`).
    Recorder(TraceSink& sink, std::uint64_t seed, std::string_view stamp,
             std::int64_t started_ns, RecorderOptions options = {});
    ~Recorder();

    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    /// Install this recorder as `net`'s packet tap, capturing into shard
    /// `shard`'s staging buffer. Emits NodeDef records for the backend's
    /// current nodes. Call once per backend, before the run.
    void attach(net::Backend& net, std::uint32_t shard = 0);

    /// Intern a state-hash subject name ("sim", "edge/hk", "shard/3", ...).
    [[nodiscard]] std::uint32_t subject(std::string_view name);

    /// Record one per-epoch digest. Call after drain() so the hash lands
    /// behind the wire records it covers.
    void record_hash(std::uint64_t epoch, std::uint32_t subject, std::uint64_t hash,
                     sim::Time at);

    /// Mirror an encoded recovery checkpoint into the trace (seek keyframe).
    void record_checkpoint(const std::string& owner, std::span<const std::uint8_t> bytes,
                           sim::Time at);

    /// Auto-mirror every put on `store` (timestamped with sim.now()).
    void observe_store(recovery::CheckpointStore& store, const sim::Simulator& sim);

    /// Move staged records into the writer. Single-threaded contexts only
    /// (epoch observer, periodic sim task, teardown). Never throws.
    void drain(std::uint32_t shard);
    void drain_all();

    /// Drain everything, detach all taps, and finalize the trace (emit the
    /// last chunk, flush the sink). Idempotent; the destructor calls it.
    void finish();

    /// First sink/encode failure, empty while healthy. Once set, recording
    /// is disabled (taps become no-ops).
    [[nodiscard]] const std::string& error() const { return error_; }

    /// Summed across shards; read only from single-threaded contexts.
    [[nodiscard]] std::uint64_t wire_records() const;
    [[nodiscard]] std::uint64_t avatar_updates() const;
    [[nodiscard]] std::uint64_t checkpoints() const { return checkpoints_; }
    [[nodiscard]] std::uint64_t hashes() const { return hashes_; }
    [[nodiscard]] std::uint64_t bytes_written() const { return writer_.bytes_written(); }
    [[nodiscard]] std::uint64_t chunks_written() const { return writer_.chunks_written(); }
    [[nodiscard]] const RecorderOptions& options() const { return options_; }

private:
    /// Per-backend adapter so one Recorder can tap many shard backends while
    /// net::PacketTap stays a single-method interface.
    class ShardTap final : public net::PacketTap {
    public:
        ShardTap(Recorder& rec, std::uint32_t shard) : rec_(rec), shard_(shard) {}
        void on_send(const net::Packet& p, net::Priority priority) override {
            rec_.tap_packet(shard_, p, priority);
        }

    private:
        Recorder& rec_;
        std::uint32_t shard_;
    };

    struct ShardState {
        net::Backend* net{nullptr};
        std::unique_ptr<ShardTap> tap;
        std::vector<std::uint8_t> buf;
        std::size_t records{0};
        std::int64_t first_t{0};
        bool has_checkpoint{false};
        /// Flow name -> trace flow id, interned on first sight per shard.
        /// Ids are (shard << 16) | per-shard counter: no cross-thread state,
        /// and the assignment is a pure function of each shard's own send
        /// order — trace bytes stay identical for any worker-thread count.
        std::map<std::string, std::uint32_t, std::less<>> flow_ids;
        std::uint32_t next_flow{1};
        // Cumulative stats, owned by this shard's thread during an epoch.
        std::uint64_t wire_records{0};
        std::uint64_t avatar_updates{0};
    };

    void tap_packet(std::uint32_t shard, const net::Packet& p, net::Priority priority);
    std::uint32_t intern_flow(std::uint32_t shard, ShardState& s, const std::string& name);
    ShardState& shard_state(std::uint32_t shard);
    void fail(const char* what);

    RecorderOptions options_;
    TraceWriter writer_;
    std::vector<std::unique_ptr<ShardState>> shards_;
    std::map<std::string, std::uint32_t, std::less<>> subjects_;
    std::vector<std::uint8_t> scratch_;
    std::uint32_t next_subject_id_{1};
    std::vector<recovery::CheckpointStore*> observed_stores_;
    bool finished_{false};
    bool ok_{true};
    std::string error_;
    std::uint64_t checkpoints_{0};
    std::uint64_t hashes_{0};
};

}  // namespace mvc::replay
