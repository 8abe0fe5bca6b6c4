// Outside-in meters. The counting global operator new replaces the
// allocator entry points for the whole binary, so allocations made inside
// the libraries are seen without any hook in them.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

#include "perfbench.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc{};
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded)) return p;
    throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_alloc_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

void Result::set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics.push_back({name, value, unit});
}

void Result::fail(const std::string& why) {
    correct = false;
    report.push_back("GATE FAILED: " + why);
}

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::int64_t wall_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double wall_seconds() { return static_cast<double>(wall_ns()) * 1e-9; }

SectionTimer::SectionTimer()
    : wall_(wall_seconds()), cpu_(cpu_seconds()), allocs_(allocations()) {}

Section SectionTimer::stop() const {
    return {wall_seconds() - wall_, cpu_seconds() - cpu_, allocations() - allocs_};
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

void Ledger::add(const std::string& layer, double unit_ns, double count) {
    entries_.push_back({layer, unit_ns, count});
}

double Ledger::reconcile(const std::string& workload, double cpu_seconds,
                         std::vector<std::string>& out) const {
    std::vector<std::pair<double, std::string>> parts;
    double explained = 0.0;
    for (const Entry& e : entries_) {
        const double s = e.unit_ns * e.count * 1e-9;
        explained += s;
        parts.emplace_back(s, e.layer);
    }
    std::sort(parts.begin(), parts.end(), std::greater<>());
    const double share = cpu_seconds > 0.0 ? explained / cpu_seconds : 0.0;
    char line[256];
    std::snprintf(line, sizeof line,
                  "reconciliation %s: run CPU %.3f s, explained %.3f s, explained_share %.3f",
                  workload.c_str(), cpu_seconds, explained, share);
    out.emplace_back(line);
    for (std::size_t i = 0; i < parts.size() && i < 3; ++i) {
        std::snprintf(line, sizeof line, "  top %zu: %-32s %.3f s (%.1f%% of CPU)", i + 1,
                      parts[i].second.c_str(), parts[i].first,
                      cpu_seconds > 0.0 ? 100.0 * parts[i].first / cpu_seconds : 0.0);
        out.emplace_back(line);
    }
    for (const Entry& e : entries_) {
        std::snprintf(line, sizeof line, "  layer %-30s %12.1f ns x %14.0f", e.layer.c_str(),
                      e.unit_ns, e.count);
        out.emplace_back(line);
    }
    std::snprintf(line, sizeof line, "  unexplained: %.3f s", cpu_seconds - explained);
    out.emplace_back(line);
    return share;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"sim.events", "count"},
        {"sim.event_ns", "ns"},
        {"sim.epochs", "count"},
        {"sim.epoch_ms.p50", "ms"},
        {"sim.epoch_ms.p99", "ms"},
        {"sim.worker_util", "ratio"},
        {"sim.cross_messages", "count"},
        {"sim.metrics_samples", "count"},
        {"sim.metrics_collect_ms", "ms"},
        {"net.packets", "count"},
        {"net.drops", "count"},
        {"net.send_ns", "ns"},
        {"net.frame_encode_ns", "ns"},
        {"net.frame_decode_ns", "ns"},
        {"net.udp.poll_turn_us.p50", "us"},
        {"net.udp.poll_turn_us.p99", "us"},
        {"net.udp.dgrams_per_turn", "count"},
        {"net.unencodable", "count"},
        {"sync.grid_rebuilds_incremental", "count"},
        {"sync.grid_rebuilds_full", "count"},
        {"sync.grid_rebuild_us", "us"},
        {"sync.grid_query_ns", "ns"},
        {"sync.aggregator_flush_us", "us"},
        {"sync.ship_ratio", "ratio"},
        {"sync.suppressed_aoi", "count"},
        {"sync.suppressed_rate", "count"},
        {"sync.batcher_flush_us", "us"},
        {"avatar.encode_ns", "ns"},
        {"avatar.decode_ns", "ns"},
        {"core.pool_sweep_us", "us"},
        {"cloud.relay_handler_us.p50", "us"},
        {"cloud.relay_handler_us.p99", "us"},
        {"cloud.client_handler_us.p50", "us"},
        {"cloud.fanout_per_update", "count"},
        {"sensing.fusion_us", "us"},
        {"media.fec_encode_us", "us"},
        {"recovery.checkpoint_encode_us", "us"},
        {"recovery.checkpoints", "count"},
        {"replay.tap_ns", "ns"},
        {"replay.trace_bytes", "bytes"},
        {"explained_share", "ratio"},
        {"trace.overhead", "ratio"},
    };
    return list;
}

}  // namespace perfbench
