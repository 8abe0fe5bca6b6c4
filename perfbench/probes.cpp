#include "probes.hpp"

#include <algorithm>

#include "net/wire_format.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace net = mvc::net;

const char* span_name(SpanKind kind) {
    switch (kind) {
        case SpanKind::Build: return "build";
        case SpanKind::Epoch: return "sim.epoch";
        case SpanKind::PollTurn: return "net.udp.poll_once";
        case SpanKind::RelayHandler: return "cloud.relay_handler";
        case SpanKind::ClientHandler: return "cloud.client_handler";
        case SpanKind::Send: return "net.send";
        case SpanKind::ReplayTap: return "replay.tap";
    }
    return "?";
}

// ------------------------------------------------------------------ SpanLog

SpanLog::SpanLog(std::size_t keep) : keep_(keep) { stack_.reserve(16); }

void SpanLog::open(SpanKind kind, std::uint64_t id) {
    std::int64_t kept = -1;
    const std::int64_t now = wall_ns();
    if (spans_.size() < keep_) {
        kept = static_cast<std::int64_t>(spans_.size());
        spans_.push_back({kind, now, now, id, stack_.empty() ? -1 : stack_.back().kept});
    }
    stack_.push_back({kind, now, id, 0.0, kept});
}

void SpanLog::close() {
    const std::int64_t now = wall_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const auto dur = static_cast<double>(now - f.start_ns);
    Stat& s = stats_[static_cast<std::size_t>(f.kind)];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - f.child_ns;
    s.self_us.push_back(static_cast<float>((dur - f.child_ns) * 1e-3));
    if (f.kept >= 0) spans_[static_cast<std::size_t>(f.kept)].end_ns = now;
    if (!stack_.empty()) stack_.back().child_ns += dur;
}

void SpanLog::record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
                     std::uint64_t id) {
    const auto dur = static_cast<double>(end_ns - start_ns);
    Stat& s = stats_[static_cast<std::size_t>(kind)];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur;
    s.self_us.push_back(static_cast<float>(dur * 1e-3));
    if (spans_.size() < keep_) spans_.push_back({kind, start_ns, end_ns, id, -1});
}

std::uint64_t SpanLog::current_id() {
    return stack_.empty() ? next_id_++ : stack_.back().id;
}

bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t l = 0; l < logs.size(); ++l) {
        for (const SpanLog::Span& s : logs[l]->spans()) {
            std::fprintf(f,
                         "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"id\":%llu,"
                         "\"parent\":%lld,\"log\":%zu}\n",
                         span_name(s.kind), static_cast<long long>(s.start_ns),
                         static_cast<long long>(s.end_ns),
                         static_cast<unsigned long long>(s.id),
                         static_cast<long long>(s.parent), l);
        }
    }
    return std::fclose(f) == 0;
}

double self_us_quantile(const SpanLog& log, SpanKind kind, double q) {
    const auto& v = log.stat(kind).self_us;
    return quantile(std::vector<double>(v.begin(), v.end()), q);
}

// ------------------------------------------------------------- TimedBackend

TimedClock::TimedClock(mvc::sim::Clock& inner, SpanLog& log, SpanKind kind)
    : inner_(inner), log_(log), kind_(kind) {}

mvc::sim::EventHandle TimedClock::schedule_at_erased(mvc::sim::Time at, mvc::sim::EventFn fn) {
    return inner_.schedule_at_erased(
        at, mvc::sim::EventFn{[this, id = log_.current_id(), f = std::move(fn)]() mutable {
            log_.open(kind_, id);
            f();
            log_.close();
        }});
}

std::function<void()> TimedClock::wrap(std::function<void()> fn) {
    return [this, id = log_.current_id(), f = std::move(fn)] {
        log_.open(kind_, id);
        f();
        log_.close();
    };
}

mvc::sim::EventHandle TimedClock::schedule_every(mvc::sim::Time period,
                                                 std::function<void()> fn) {
    return inner_.schedule_every(period, wrap(std::move(fn)));
}

mvc::sim::EventHandle TimedClock::schedule_every(mvc::sim::Time period, mvc::sim::Time phase,
                                                 std::function<void()> fn) {
    return inner_.schedule_every(period, phase, wrap(std::move(fn)));
}

TimedBackend::TimedBackend(net::Backend& inner, SpanLog& log) : inner_(inner), log_(log) {}

TimedBackend::TimedBackend(net::Backend& inner, SpanLog& log, SpanKind deferred)
    : inner_(inner), log_(log), clock_(std::make_unique<TimedClock>(inner.clock(), log, deferred)) {}

void TimedBackend::mark(net::NodeId node, SpanKind handler_kind) {
    if (kinds_.size() <= node) kinds_.resize(node + 1, SpanKind::ClientHandler);
    kinds_[node] = handler_kind;
}

net::NodeId TimedBackend::add_node(std::string name, net::Region region) {
    return inner_.add_node(std::move(name), region);
}

void TimedBackend::set_handler(net::NodeId node, net::PacketHandler handler) {
    const SpanKind kind = node < kinds_.size() ? kinds_[node] : SpanKind::ClientHandler;
    inner_.set_handler(node, [this, kind, h = std::move(handler)](net::Packet&& p) {
        log_.open(kind, p.id);
        h(std::move(p));
        log_.close();
    });
}

net::Region TimedBackend::region_of(net::NodeId node) const { return inner_.region_of(node); }
const std::string& TimedBackend::name_of(net::NodeId node) const {
    return inner_.name_of(node);
}
std::size_t TimedBackend::node_count() const { return inner_.node_count(); }
net::NodeContext& TimedBackend::context(net::NodeId node) { return inner_.context(node); }
const net::NodeContext& TimedBackend::context(net::NodeId node) const {
    return inner_.context(node);
}
bool TimedBackend::node_up(net::NodeId node) const { return inner_.node_up(node); }
void TimedBackend::observe_node(net::NodeId node, NodeObserver observer) {
    inner_.observe_node(node, std::move(observer));
}
net::FlowRef TimedBackend::flow(std::string_view name) { return inner_.flow(name); }
mvc::sim::Clock& TimedBackend::clock() {
    return clock_ ? static_cast<mvc::sim::Clock&>(*clock_) : inner_.clock();
}
mvc::sim::MetricsRecorder& TimedBackend::metrics() { return inner_.metrics(); }
const mvc::sim::MetricsRecorder& TimedBackend::metrics() const { return inner_.metrics(); }
void TimedBackend::set_tap(net::PacketTap* tap) { inner_.set_tap(tap); }
net::PacketTap* TimedBackend::tap() const { return inner_.tap(); }

bool TimedBackend::do_send(net::NodeId src, net::NodeId dst, std::size_t size_bytes,
                           net::FlowRef flow, net::Payload payload,
                           net::Priority priority) {
    log_.open(SpanKind::Send, log_.current_id());
    const bool ok = inner_.send(src, dst, size_bytes, flow, std::move(payload), priority);
    log_.close();
    return ok;
}

// --------------------------------------------------------------- EpochProbe

EpochProbe::EpochProbe(mvc::sim::ShardSet& shards, SpanLog* log)
    : shards_(&shards), log_(log) {
    shards_->set_epoch_observer([this](std::uint64_t epoch, mvc::sim::Time) {
        const std::int64_t now = wall_ns();
        if (log_ != nullptr) log_->record(SpanKind::Epoch, last_ns_, now, epoch);
        epoch_ms.push_back(static_cast<double>(now - last_ns_) * 1e-6);
        last_ns_ = now;
    });
}

EpochProbe::~EpochProbe() { shards_->set_epoch_observer(nullptr); }

void EpochProbe::start() { last_ns_ = wall_ns(); }

NetCounts net_counts(const mvc::sim::MetricsRecorder& metrics) {
    NetCounts out;
    const auto starts = [](const std::string& key, std::string_view prefix) {
        return key.compare(0, prefix.size(), prefix) == 0;
    };
    for (const auto& [key, value] : metrics.counters()) {
        if (starts(key, "net.tx.")) out.tx += value;
        const bool fault = starts(key, "net.link_down_drop.") || key == "net.node_down_drop";
        const bool failure = starts(key, "net.queue_drop.") || key == "net.no_route" ||
                             key == "net.dropped_no_handler";
        if (fault || failure) out.drops += value;
        if (failure) out.failed += value;
    }
    for (const auto& entry : metrics.all_series()) out.series_samples += entry.second->count();
    return out;
}

// ------------------------------------------------------------------ WireTap

WireTap::WireTap(net::Backend& backend, SpanLog* time_next, std::size_t keep_samples,
                 bool encode)
    : backend_(backend),
      next_(backend.tap()),
      time_next_(time_next),
      keep_samples_(keep_samples),
      encode_(encode) {
    samples_.reserve(keep_samples);
    backend_.set_tap(this);
}

WireTap::~WireTap() {
    if (backend_.tap() == this) backend_.set_tap(next_);
}

void WireTap::on_send(const net::Packet& p, net::Priority priority) {
    if (encode_) observe(p, priority);
    if (next_ == nullptr) return;
    if (time_next_ == nullptr) {
        next_->on_send(p, priority);
        return;
    }
    const std::int64_t t0 = wall_ns();
    next_->on_send(p, priority);
    time_next_->record(SpanKind::ReplayTap, t0, wall_ns(), p.id);
}

void WireTap::observe(const net::Packet& p, net::Priority priority) {
    if (const auto frame = net::encode_frame(p, priority)) {
        bytes_ += frame->size();
        if (samples_.size() < keep_samples_) samples_.push_back(p);
    } else {
        ++unencodable_;
    }
    ++flows_[p.flow];
}

}  // namespace perfbench
