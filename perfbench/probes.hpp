#pragma once
// Tracing from outside the program: spans recorded around calls into the
// libraries' public boundaries, a net::Backend decorator that times packet
// handlers and sends (the decorator shape net::ChaosBackend uses), and a
// PacketTap that runs the real wire encoder over every packet a backend
// sees. Nothing here hooks into src/.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/backend.hpp"
#include "sim/shard.hpp"

namespace perfbench {

/// Span names. A span's self time is its duration minus its children's.
enum class SpanKind : std::uint8_t {
    Build,          ///< world construction (scenario::build, CampusWorld, ...)
    Epoch,          ///< one ShardSet epoch, observer to observer
    PollTurn,       ///< one RealUdpBackend::poll_once
    RelayHandler,   ///< a relay node's packet handler
    ClientHandler,  ///< a client/viewer node's packet handler
    Send,           ///< Backend::send through the decorator
    ReplayTap,      ///< the replay recorder's PacketTap::on_send
};
inline constexpr std::size_t kSpanKinds = 7;
[[nodiscard]] const char* span_name(SpanKind kind);

/// In-memory span log for one thread of execution at a time (one per shard
/// under the sharded engine). Keeps per-kind statistics for every span and
/// the first `keep` spans verbatim for the trace file.
class SpanLog {
public:
    struct Stat {
        std::uint64_t count{0};
        double total_ns{0.0};
        double self_ns{0.0};
        std::vector<float> self_us;  ///< one sample per span
    };
    struct Span {
        SpanKind kind;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::uint64_t id;      ///< shared by the spans of one update
        std::int64_t parent;   ///< index into spans(), -1 for a root
    };

    explicit SpanLog(std::size_t keep = 20000);

    SpanLog(const SpanLog&) = delete;
    SpanLog& operator=(const SpanLog&) = delete;

    void open(SpanKind kind, std::uint64_t id);
    void close();
    /// Record a span measured elsewhere (no nesting).
    void record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns, std::uint64_t id);
    /// Id of the innermost open span, or a fresh id when none is open.
    [[nodiscard]] std::uint64_t current_id();

    [[nodiscard]] const Stat& stat(SpanKind kind) const {
        return stats_[static_cast<std::size_t>(kind)];
    }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    struct Frame {
        SpanKind kind;
        std::int64_t start_ns;
        std::uint64_t id;
        double child_ns;
        std::int64_t kept;  ///< index into spans_, -1 when not kept
    };
    std::size_t keep_;
    std::vector<Frame> stack_;
    std::vector<Span> spans_;
    Stat stats_[kSpanKinds];
    std::uint64_t next_id_{1};
};

/// Write every log's kept spans as JSON lines ({"name", "start_ns",
/// "end_ns", "id", "parent", "log"}) to `path`. Returns false on I/O error.
bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs);

/// Percentile of a span kind's self times, microseconds.
[[nodiscard]] double self_us_quantile(const SpanLog& log, SpanKind kind, double q);

/// Clock decorator: every callback scheduled through it runs inside a span
/// of `kind`, carrying the id of the span that scheduled it. Work a server
/// defers to its clock (a relay's fan-out after its processing charge) is
/// then timed as that server's, like its packet handler.
class TimedClock final : public mvc::sim::Clock {
public:
    TimedClock(mvc::sim::Clock& inner, SpanLog& log, SpanKind kind);

    TimedClock(const TimedClock&) = delete;
    TimedClock& operator=(const TimedClock&) = delete;

    [[nodiscard]] mvc::sim::Time now() const override { return inner_.now(); }
    [[nodiscard]] mvc::sim::Rng rng_stream(std::string_view name) const override {
        return inner_.rng_stream(name);
    }
    mvc::sim::EventHandle schedule_at_erased(mvc::sim::Time at, mvc::sim::EventFn fn) override;
    mvc::sim::EventHandle schedule_every(mvc::sim::Time period,
                                         std::function<void()> fn) override;
    mvc::sim::EventHandle schedule_every(mvc::sim::Time period, mvc::sim::Time phase,
                                         std::function<void()> fn) override;
    void cancel(mvc::sim::EventHandle h) override { inner_.cancel(h); }

protected:
    [[nodiscard]] mvc::sim::EventPool* timer_pool() override { return nullptr; }

private:
    [[nodiscard]] std::function<void()> wrap(std::function<void()> fn);

    mvc::sim::Clock& inner_;
    SpanLog& log_;
    SpanKind kind_;
};

/// Backend decorator: forwards everything to `inner`, timing packet
/// handlers (as relay or client spans, by node) and sends. With a
/// `deferred` kind, callbacks scheduled through clock() are timed too.
class TimedBackend final : public mvc::net::Backend {
public:
    TimedBackend(mvc::net::Backend& inner, SpanLog& log);
    TimedBackend(mvc::net::Backend& inner, SpanLog& log, SpanKind deferred);

    TimedBackend(const TimedBackend&) = delete;
    TimedBackend& operator=(const TimedBackend&) = delete;

    /// Classify `node`'s handler; unclassified nodes are clients.
    void mark(mvc::net::NodeId node, SpanKind handler_kind);


    mvc::net::NodeId add_node(std::string name, mvc::net::Region region) override;
    void set_handler(mvc::net::NodeId node, mvc::net::PacketHandler handler) override;
    [[nodiscard]] mvc::net::Region region_of(mvc::net::NodeId node) const override;
    [[nodiscard]] const std::string& name_of(mvc::net::NodeId node) const override;
    [[nodiscard]] std::size_t node_count() const override;
    [[nodiscard]] mvc::net::NodeContext& context(mvc::net::NodeId node) override;
    [[nodiscard]] const mvc::net::NodeContext& context(mvc::net::NodeId node) const override;
    [[nodiscard]] bool node_up(mvc::net::NodeId node) const override;
    void observe_node(mvc::net::NodeId node, NodeObserver observer) override;
    [[nodiscard]] mvc::net::FlowRef flow(std::string_view name) override;
    [[nodiscard]] mvc::sim::Clock& clock() override;
    [[nodiscard]] mvc::sim::MetricsRecorder& metrics() override;
    [[nodiscard]] const mvc::sim::MetricsRecorder& metrics() const override;
    void set_tap(mvc::net::PacketTap* tap) override;
    [[nodiscard]] mvc::net::PacketTap* tap() const override;

protected:
    bool do_send(mvc::net::NodeId src, mvc::net::NodeId dst, std::size_t size_bytes,
                 mvc::net::FlowRef flow, mvc::net::Payload payload,
                 mvc::net::Priority priority) override;

private:
    mvc::net::Backend& inner_;
    SpanLog& log_;
    std::unique_ptr<TimedClock> clock_;  // null: clock() is inner's
    std::vector<SpanKind> kinds_;  // by node id
};

/// Host time per ShardSet epoch, taken from the engine's public epoch
/// observer. With a SpanLog, each epoch is also recorded as a span.
class EpochProbe {
public:
    EpochProbe(mvc::sim::ShardSet& shards, SpanLog* log);
    ~EpochProbe();

    EpochProbe(const EpochProbe&) = delete;
    EpochProbe& operator=(const EpochProbe&) = delete;

    /// Mark the start of the measured run (host time origin).
    void start();

    std::vector<double> epoch_ms;

private:
    mvc::sim::ShardSet* shards_;
    SpanLog* log_;
    std::int64_t last_ns_{0};
};

/// Packet counters summed over every flow of a metrics snapshot.
struct NetCounts {
    std::uint64_t tx{0};
    /// Queue, link-down, node-down, no-route and no-handler drops.
    std::uint64_t drops{0};
    /// The drops that are failures of the system rather than injected
    /// faults: queue overflow, no route, no handler.
    std::uint64_t failed{0};
    /// Samples held across all series (the recorder's memory footprint).
    std::uint64_t series_samples{0};
};
[[nodiscard]] NetCounts net_counts(const mvc::sim::MetricsRecorder& metrics);

/// PacketTap that encodes every packet with net::encode_frame — the real
/// wire encoder — and counts bytes and unencodable packets, then
/// forwards to the tap that was installed before it (the replay recorder),
/// optionally timing that call.
class WireTap final : public mvc::net::PacketTap {
public:
    /// Installs itself on `backend`, chaining the backend's current tap.
    /// With `encode` false it only times the chained tap.
    WireTap(mvc::net::Backend& backend, SpanLog* time_next = nullptr,
            std::size_t keep_samples = 0, bool encode = true);
    ~WireTap() override;

    WireTap(const WireTap&) = delete;
    WireTap& operator=(const WireTap&) = delete;

    void on_send(const mvc::net::Packet& p, mvc::net::Priority priority) override;

    [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
    [[nodiscard]] std::uint64_t unencodable() const { return unencodable_; }
    /// The first `keep_samples` encodable packets seen, for unit-cost
    /// probes that need inputs shaped like the workload's.
    [[nodiscard]] const std::vector<mvc::net::Packet>& samples() const { return samples_; }
    /// Packets seen per flow label.
    [[nodiscard]] const std::map<std::string, std::uint64_t>& flows() const { return flows_; }

private:
    void observe(const mvc::net::Packet& p, mvc::net::Priority priority);

    mvc::net::Backend& backend_;
    mvc::net::PacketTap* next_;
    SpanLog* time_next_;
    std::size_t keep_samples_;
    bool encode_;
    std::vector<mvc::net::Packet> samples_;
    std::map<std::string, std::uint64_t> flows_;
    std::uint64_t bytes_{0};
    std::uint64_t unencodable_{0};
};

}  // namespace perfbench
