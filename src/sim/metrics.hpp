#pragma once
// Telemetry sink shared by every subsystem. Named counters and latency
// series are registered lazily; benchmarks read them out at the end of a
// run to print the experiment tables and export BENCH_<exp>.json.
//
// Metrics can carry labels (dimension key/value pairs). Labeled metrics are
// flattened into one canonical key — `name{k1=v1,k2=v2}` with labels sorted
// by key, independent of call-site order — so storage stays a flat ordered
// map, exports are deterministic, and the same metric emitted from two
// shards (or two code paths) can never land under two different keys.
//
// Hot paths intern a MetricId once (name + labels -> dense slot index) and
// then record through it with a single bounds-checked indexed add — no string
// build, no map walk. The canonical string key set is unchanged: merge(),
// to_json() and to_string() iterate the same sorted key index whether a
// metric was recorded through a handle or through the string API, so sharded
// exports stay byte-identical.

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "math/stats.hpp"
#include "sim/time.hpp"

namespace mvc::sim {

/// One dimension of a labeled metric, e.g. {"flow", "avatar"}. Views must
/// outlive the call only (keys are copied into the canonical name).
struct Label {
    std::string_view key;
    std::string_view value;
};

/// Interned handle for one metric slot of one recorder. Resolve once with
/// MetricsRecorder::counter_id()/series_id(), then count()/sample() through
/// it from the hot path. A default-constructed id is inert: recording through
/// it is a no-op, so optional metrics need no branches at the call site.
/// Handles are invalidated by reset() (recording through a stale handle is a
/// safe no-op until re-resolved) and are only meaningful for the recorder
/// that issued them.
class MetricId {
public:
    constexpr MetricId() = default;

    [[nodiscard]] constexpr bool valid() const { return index_ != kInvalid; }

private:
    friend class MetricsRecorder;
    static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

    constexpr explicit MetricId(std::uint32_t index) : index_(index) {}

    std::uint32_t index_{kInvalid};
};

class MetricsRecorder {
public:
    /// Add `delta` to the named monotonic counter.
    void count(std::string_view name, std::uint64_t delta = 1);
    void count(std::string_view name, std::initializer_list<Label> labels,
               std::uint64_t delta = 1);
    /// Record one sample into the named series (e.g. a latency in ms).
    void sample(std::string_view name, double value);
    void sample(std::string_view name, std::initializer_list<Label> labels, double value);

    /// Intern a counter/series slot and return its handle. The slot is
    /// created immediately (with value 0 / no samples) so the canonical key
    /// appears in exports even before the first record — interning is part
    /// of construction, which keeps sharded exports independent of how much
    /// traffic each shard happened to carry.
    MetricId counter_id(std::string_view name);
    MetricId counter_id(std::string_view name, std::initializer_list<Label> labels);
    MetricId series_id(std::string_view name);
    MetricId series_id(std::string_view name, std::initializer_list<Label> labels);

    /// Hot-path record through a pre-resolved handle: one indexed add.
    void count(MetricId id, std::uint64_t delta = 1) {
        if (id.index_ < counter_values_.size()) counter_values_[id.index_] += delta;
    }
    void sample(MetricId id, double value) {
        if (id.index_ < series_values_.size()) series_values_[id.index_].add(value);
    }

    /// Canonical flattened key for a labeled metric: `name{k1=v1,k2=v2}`,
    /// labels ordered by key regardless of the order given at the call site.
    [[nodiscard]] static std::string keyed(std::string_view name,
                                           std::initializer_list<Label> labels);

    /// Merge-on-join for sharded runs: fold `other` into this recorder —
    /// counters add, series append their samples in recording order. Merging
    /// shard recorders in a fixed (shard-index) order yields byte-identical
    /// exports regardless of how many threads executed the shards.
    void merge(const MetricsRecorder& other);

    [[nodiscard]] std::uint64_t counter(std::string_view name) const;
    [[nodiscard]] std::uint64_t counter(std::string_view name,
                                        std::initializer_list<Label> labels) const;
    /// Series accessor; returns an empty static series for unknown names so
    /// report code never branches on existence.
    [[nodiscard]] const math::SampleSeries& series(std::string_view name) const;
    [[nodiscard]] const math::SampleSeries& series(
        std::string_view name, std::initializer_list<Label> labels) const;
    [[nodiscard]] bool has_series(std::string_view name) const;

    /// Visit every counter as fn(key, value), in key order, without
    /// building a snapshot.
    template <class Fn>
    void for_each_counter(Fn&& fn) const {
        for (const auto& [name, slot] : counter_index_)
            fn(std::string_view{name}, counter_values_[slot]);
    }
    /// Visit every series as fn(key, series), in key order.
    template <class Fn>
    void for_each_series(Fn&& fn) const {
        for (const auto& [name, slot] : series_index_)
            fn(std::string_view{name}, series_values_[slot]);
    }

    /// Snapshot of all counters by canonical key (sorted). Cold path: built
    /// on demand now that live values sit in dense slots.
    [[nodiscard]] std::map<std::string, std::uint64_t, std::less<>> counters() const;
    /// Sorted (key, series) view; pointers are valid until reset().
    [[nodiscard]] std::vector<std::pair<std::string_view, const math::SampleSeries*>>
    all_series() const;

    void reset();

    /// Multi-line human-readable dump ("name: count" / "name: mean/p50/p95/p99").
    [[nodiscard]] std::string to_string() const;

    /// Machine-readable export: {"counters": {name: value}, "series":
    /// {name: {count, mean, min, max, p50, p95, p99}}}. Key order (and thus
    /// the serialized bytes) is deterministic for a given set of metrics.
    [[nodiscard]] common::Json to_json() const;

private:
    std::uint32_t counter_slot(std::string_view name);
    std::uint32_t series_slot(std::string_view name);

    // Sorted key -> dense slot index. The index maps carry the canonical
    // string keys (and the deterministic iteration order for exports); the
    // value arrays are what the hot path touches. series_values_ is a deque
    // so series() references stay stable as slots are interned.
    std::map<std::string, std::uint32_t, std::less<>> counter_index_;
    std::vector<std::uint64_t> counter_values_;
    std::map<std::string, std::uint32_t, std::less<>> series_index_;
    std::deque<math::SampleSeries> series_values_;
};

}  // namespace mvc::sim
